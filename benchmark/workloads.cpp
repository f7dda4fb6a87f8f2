// The four workloads. Each one fixes its inputs from the seed and constants
// here (never from the program's measured speed), measures for the given
// number of seconds, checks the outputs, and fills the end-to-end metrics:
//
//   gpts_per_s   useful point updates per second
//   p50_ms       median latency of the workload's operation
//   peak_rss_mb  peak resident memory (set by the caller)
//   setup_s      median of the workload's repeated set-up
//
// p90_ms and p99_ms are reported beside them but not gated: on a shared
// host, bursts of interference from other tenants decide the tail.
//
// The operation is one Plan::execute (sweep_l2), one solve from
// initialising the grid to the finished grid (solve_dram), or one served
// request timed from when it was due (serve_small) or sent (serve_tiled).

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>

#include "bench.hpp"

namespace tsvbench {

using tsv::Dtype;
using tsv::Method;
using tsv::Options;
using tsv::Scheduler;
using tsv::StencilKind;
using tsv::Tiling;

namespace {

constexpr int kSetupReps = 9;

/// Compute threads of the multi-threaded workloads. One core of four stays
/// free for the host and the benchmark's own threads: with all four busy,
/// any other runnable thread preempts a compute thread for a whole time
/// slice, which widens the run-to-run spread.
int busy_threads() { return std::min(3, max_threads()); }

void set_setup(Result& r, const std::vector<double>& setup) {
  r.set("setup_s", median(setup), "s");
}

void set_latency(Result& r, const std::vector<double>& ms) {
  r.set("p50_ms", median(ms), "ms");
  r.set("p90_ms", quantile(ms, 0.90), "ms");
  r.set("p99_ms", quantile(ms, 0.99), "ms");
}

// ===========================================================================
// sweep_l2: the kernel layers alone.
// ===========================================================================

LadderSpec sweep_l2(const RunArgs& a, Result& r, Tracer& tr) {
  const std::vector<Config> cfgs = sweep_configs();

  // Oracle: every configuration, same shape, method and ISA, short steps.
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    Config c = cfgs[i];
    c.opts.steps = 4;
    AnyGrid in = make_grid(c.shape, c.dtype);
    fill_seeded(in, hash64(a.seed, i));
    AnyGrid out = in;
    execute(tsv::make_plan(c.shape, spec_of(c.kind), c.opts), out);
    const double err = reference_error(c, in, out);
    r.check(err <= tolerance(c), "sweep_l2 " + c.name() +
                                     " matches reference_run (err " +
                                     std::to_string(err) + ")");
  }

  struct Item {
    Config c;
    AnyGrid g;
    tsv::Plan plan;
    std::vector<double> secs;
  };
  // Each set-up frees the grids and workspaces of the one before. glibc
  // would return those pages to the kernel and fault them in again, and on
  // a virtual machine the cost of a fault differs so much between
  // processes that set-up times differed by up to 1.5x from run to run.
  // Keeping freed pages in the heap leaves the library's own work.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::vector<Item> items;
  std::vector<double> setup;
  // Builds every configuration afresh (grid, plan, one warm-up execute
  // that populates the plan's workspace); the measured times carry over.
  const auto set_up = [&] {
    std::vector<Item> fresh;
    const double t0 = now_s();
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      const Config& c = cfgs[i];
      AnyGrid g = make_grid(c.shape, c.dtype);
      fill_seeded(g, hash64(a.seed, 100 + i));
      tsv::Plan plan = tsv::make_plan(c.shape, spec_of(c.kind), c.opts);
      execute(plan, g);
      fresh.push_back({c, std::move(g), std::move(plan), {}});
    }
    setup.push_back(now_s() - t0);
    for (std::size_t i = 0; i < items.size(); ++i)
      fresh[i].secs = std::move(items[i].secs);
    items = std::move(fresh);
  };

  // Round-robin over the configurations so slow drift of the host hits
  // them all alike. The set-ups are spread evenly over the run, so they
  // see the same machine as the executes; a set-up at start-up alone
  // sampled a fraction of a second and spread 15% from run to run.
  const double start = now_s(), end = start + a.seconds;
  while (now_s() < end) {
    const int done = static_cast<int>(setup.size());
    if (done < kSetupReps && now_s() >= start + a.seconds * done / kSetupReps)
      set_up();
    for (Item& it : items) {
      const double t0 = now_s();
      execute(it.plan, it.g);
      const double t1 = now_s();
      tr.add("plan.execute", t0, t1);
      it.secs.push_back(t1 - t0);
      ++r.attempted;
    }
  }

  std::vector<double> rates, p50, p90, p99;
  for (Item& it : items) {
    // Weights are positive and sum to 1 and the halo is frozen, so every
    // value must stay inside the input's range [0.5, 1].
    if (!r.check(values_within(it.g, 0.5 - 1e-3, 1.0 + 1e-3),
                 "sweep_l2 " + it.c.name() + " output stays in the input range"))
      r.failed += it.secs.size();
    const double med = median(it.secs);
    rates.push_back(it.c.updates() / med / 1e9);
    p50.push_back(med * 1e3);
    p90.push_back(quantile(it.secs, 0.90) * 1e3);
    p99.push_back(quantile(it.secs, 0.99) * 1e3);
    r.set("sweep.gpts_per_s." + it.c.name(), rates.back(), "Gpts/s");
  }
  r.set("gpts_per_s", geomean(rates), "Gpts/s");
  r.set("p50_ms", geomean(p50), "ms");
  r.set("p90_ms", geomean(p90), "ms");
  r.set("p99_ms", geomean(p99), "ms");
  set_setup(r, setup);
  r.note("load_threads", 1.0);

  const Config& ladder = cfgs[6];  // 2d9p.f64
  tsv::SchedulerConfig sc;
  sc.executor = {.gangs = 1, .threads_per_gang = 1};
  sc.retry_budget = 1;
  return {ladder, sc, 15};
}

// ===========================================================================
// solve_dram: one large tiled solve, timed from allocation.
// ===========================================================================

Config solve_config() {
  return make_config(StencilKind::k3d7p, Dtype::kF64,
                     tsv::shape3d(320, 288, 288),
                     {.method = Method::kTransposeUJ,
                      .tiling = Tiling::kTessellate,
                      .steps = 8,
                      .threads = busy_threads(),
                      .boundary = tsv::BoundarySpec::uniform(
                          tsv::Boundary::kZero)});
}

/// Cone-window oracle: re-derives a 16^3 window of the solve's output with
/// reference_run on a sub-grid holding the window plus 2 * steps * radius
/// cells around it. Values entering through a cut face travel one cell per
/// step, so they cannot reach the window; where the sub-grid meets the
/// domain boundary its ghosts are zero, as in the solve.
double window_error(const tsv::Grid3D<double>& out, std::uint64_t seed,
                    index steps, index wx, index wy, index wz) {
  constexpr index kW = 16;
  const index margin = 2 * steps;
  const index n[3] = {out.nx(), out.ny(), out.nz()};
  const index w[3] = {wx, wy, wz};
  index lo[3], hi[3];
  for (int d = 0; d < 3; ++d) {
    lo[d] = std::max<index>(0, w[d] - margin);
    hi[d] = std::min(n[d], w[d] + kW + margin);
  }
  tsv::Grid3D<double> sub(hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2], 1);
  sub.fill([&](index x, index y, index z) {
    const index g[3] = {lo[0] + x, lo[1] + y, lo[2] + z};
    for (int d = 0; d < 3; ++d)
      if (g[d] < 0 || g[d] >= n[d]) return 0.0;
    return seeded_value(seed, g[0], g[1], g[2]);
  });
  tsv::reference_run(sub, tsv::make_3d7p<double>(), steps);
  double err = 0.0;
  for (index z = wz; z < wz + kW; ++z)
    for (index y = wy; y < wy + kW; ++y)
      for (index x = wx; x < wx + kW; ++x)
        err = std::max(err, std::abs(out.at(x, y, z) -
                                     sub.at(x - lo[0], y - lo[1], z - lo[2])));
  return err;
}

/// Checks four seeded 16^3 windows of the solve's output (one corner, one
/// face, two interior) with window_error.
void check_windows(const Config& c, const AnyGrid& g, std::uint64_t input_seed,
                   std::uint64_t seed, Result& r) {
  const auto& out = std::get<tsv::Grid3D<double>>(g);
  Rng rng(hash64(seed, 201));
  const index steps = c.opts.steps, m = 2 * steps, w = 16;
  auto pick = [&](index n) {
    return m + static_cast<index>(rng.next() % static_cast<std::uint64_t>(
                   n - w - 2 * m + 1));
  };
  const index nx = c.shape.nx, ny = c.shape.ny, nz = c.shape.nz;
  const bool far = rng.chance(0.5);
  const index windows[4][3] = {
      {far ? nx - w : 0, far ? ny - w : 0, far ? nz - w : 0},  // corner
      {pick(nx), pick(ny), 0},                                  // face
      {pick(nx), pick(ny), pick(nz)},                           // interior
      {pick(nx), pick(ny), pick(nz)}};                          // interior
  const char* what[4] = {"corner", "face", "interior", "interior"};
  for (int k = 0; k < 4; ++k) {
    const double err = window_error(out, input_seed, steps, windows[k][0],
                                    windows[k][1], windows[k][2]);
    r.check(err <= tsv::accuracy_tolerance<double>(steps),
            std::string("solve_dram ") + what[k] +
                " window matches reference_run (err " + std::to_string(err) +
                ")");
  }
}

LadderSpec solve_dram(const RunArgs& a, Result& r, Tracer& tr) {
  const Config c = solve_config();
  const std::uint64_t input_seed = hash64(a.seed, 200);
  const int threads = busy_threads();

  // The cold solve: grid allocation and first touch, plan build, and a
  // first execute that faults in the plan's workspace (about 880 MB of
  // per-thread scratch with the seed's one-tile blocks). It is reported,
  // not gated: on a virtual machine the cost of a page fault drifts with
  // the host's load, by 40% between two sets of runs of the same code,
  // and faulting on every solve made gpts_per_s spread 10%.
  const std::int64_t cold_rid = tr.new_rid();
  const double c0 = now_s();
  AnyGrid g = make_grid(c.shape, c.dtype, tsv::FirstTouch::kNone);
  fill_seeded(g, input_seed, threads);
  const tsv::Plan plan = tsv::make_plan(c.shape, spec_of(c.kind), c.opts);
  const double c1 = now_s();
  execute(plan, g);
  const double c2 = now_s();
  const std::int64_t cold = tr.add("solve.cold", c0, c2, -1, cold_rid);
  tr.add("alloc_init_make_plan", c0, c1, cold, cold_rid);
  tr.add("plan.execute", c1, c2, cold, cold_rid);
  r.set("cold_solve_s", c2 - c0, "s");
  ++r.attempted;
  check_windows(c, g, input_seed, a.seed, r);
  const std::uint64_t first_digest = digest(g);

  // Warm solves reuse the plan and the grid: each re-initialises the grid
  // in place and solves again, as a process solving a sequence of
  // problems would.
  std::vector<double> setup, exec, solve;
  const double end = now_s() + a.seconds;
  // At least three solves, so the medians have something to stand on.
  while (solve.size() < 3 || now_s() < end) {
    const std::int64_t rid = tr.new_rid();
    const double t0 = now_s();
    fill_seeded(g, input_seed, threads);
    const double t1 = now_s();
    execute(plan, g);
    const double t2 = now_s();
    const std::int64_t root = tr.add("solve", t0, t2, -1, rid);
    tr.add("init", t0, t1, root, rid);
    tr.add("plan.execute", t1, t2, root, rid);
    setup.push_back(t1 - t0);
    exec.push_back(t2 - t1);
    solve.push_back(t2 - t0);
    ++r.attempted;
    if (!r.check(digest(g) == first_digest,
                 "solve_dram solve " + std::to_string(solve.size()) +
                     " is bit-identical to the cold solve"))
      ++r.failed;
  }

  r.set("gpts_per_s", c.updates() / median(exec) / 1e9, "Gpts/s");
  for (double& s : solve) s *= 1e3;
  set_latency(r, solve);
  r.set("solve_s", median(solve) * 1e-3, "s");
  set_setup(r, setup);
  r.note("solves", static_cast<double>(solve.size()));
  r.note("load_threads", threads);

  // The layer ladder runs the same grid for 4 steps (one temporal block).
  Config ladder = c;
  ladder.opts.steps = 4;
  tsv::SchedulerConfig sc;
  sc.executor = {.gangs = 1, .threads_per_gang = threads};
  sc.retry_budget = 1;
  return {ladder, sc, 3};
}

// ===========================================================================
// Serving: seeded input pools with verified outputs.
// ===========================================================================

/// Seeded inputs of one request type and the digest of each one's direct
/// Plan::execute output. The first @p oracle outputs are checked against
/// reference_run; the Scheduler must reproduce the direct digest exactly.
struct Pool {
  Config c;
  tsv::StencilSpec spec;
  std::vector<AnyGrid> inputs;
  std::vector<std::uint64_t> expect;
};

Pool make_pool(const Config& c, int n, int oracle, std::uint64_t seed,
               Result& r) {
  Pool p{c, spec_of(c.kind), {}, {}};
  const tsv::Plan plan = tsv::make_plan(c.shape, p.spec, c.opts);
  for (int i = 0; i < n; ++i) {
    AnyGrid in = make_grid(c.shape, c.dtype);
    fill_seeded(in, hash64(seed, static_cast<std::uint64_t>(i)));
    AnyGrid out = in;
    execute(plan, out);
    if (i < oracle) {
      const double err = reference_error(c, in, out);
      r.check(err <= tolerance(c), "pool " + c.name() + " input " +
                                       std::to_string(i) +
                                       " matches reference_run");
    }
    p.expect.push_back(digest(out));
    p.inputs.push_back(std::move(in));
  }
  return p;
}

/// Closes the scheduler's view of the run: trace spans and counters.
void finish_scheduler(Scheduler& s, const std::vector<Submitted>& sent,
                      double c0, double c1, Result& r, Tracer& tr) {
  s.wait_idle();
  if (!tr.on()) return;
  const tsv::SchedulerStats st = s.stats();
  scheduler_metrics(r, st, attach_scheduler_spans(tr, sent, st, c0, c1));
}

// ===========================================================================
// serve_small: open loop of small requests, fixed cost dominates.
// ===========================================================================

constexpr double kSloMs = 2.0;
constexpr double kInteractiveDeadlineMs = 5.0;
constexpr int kSmallPool = 16;
constexpr int kSmallSlots = 256;  // per type: the most a rung may queue
constexpr double kRates[] = {1000.0, 1500.0, 2250.0,
                             3375.0, 5062.5, 7593.75};
constexpr int kNominalRung = 2;

LadderSpec serve_small(const RunArgs& a, Result& r, Tracer& tr) {
  Options o;
  o.method = Method::kTranspose;
  o.steps = 16;
  std::vector<Pool> pools;
  for (Dtype d : {Dtype::kF64, Dtype::kF32}) {
    pools.push_back(make_pool(make_config(StencilKind::k1d3p, d,
                                          tsv::shape1d(4096), o),
                              kSmallPool, kSmallPool,
                              hash64(a.seed, 300 + pools.size()), r));
    pools.push_back(make_pool(make_config(StencilKind::k2d5p, d,
                                          tsv::shape2d(256, 16), o),
                              kSmallPool, kSmallPool,
                              hash64(a.seed, 300 + pools.size()), r));
  }
  const int ntypes = static_cast<int>(pools.size());

  tsv::SchedulerConfig sc;
  sc.executor = {.gangs = 2, .threads_per_gang = 1};
  sc.retry_budget = 1;
  // Deep enough that overload shows as latency, never as rejection.
  sc.queue_capacity = 1 << 16;
  tsv::SchedulerConfig run_sc = sc;
  if (tr.on()) run_sc.trace_capacity = 1 << 17;

  // The request grids are the benchmark's own buffers, allocated once:
  // faulting in their 25 MB decided the set-up time, with a spread of 30%.
  std::vector<std::vector<AnyGrid>> slots(pools.size());
  for (int t = 0; t < ntypes; ++t)
    for (int k = 0; k < kSmallSlots; ++k)
      slots[t].push_back(make_grid(pools[t].c.shape, pools[t].c.dtype));

  // Set-up: scheduler, one warm-up request per type.
  std::unique_ptr<Scheduler> sched;
  std::vector<double> setup;
  double c0 = 0, c1 = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sched.reset();
    c0 = now_s();
    sched = std::make_unique<Scheduler>(run_sc);
    c1 = now_s();
    for (int t = 0; t < ntypes; ++t) {
      copy_grid(slots[t][0], pools[t].inputs[0]);
      sched->submit(make_request(slots[t][0], pools[t].spec, pools[t].c.opts))
          .get();
    }
    setup.push_back(now_s() - c0);
  }
  set_setup(r, setup);

  struct Pending {
    double due, call_start, call_end;
    std::future<Scheduler::Result> fut;
    int type, input, slot, rung;
  };
  std::vector<Pending> live;
  std::vector<std::vector<int>> free_slots(pools.size());
  for (int t = 0; t < ntypes; ++t)
    for (int k = kSmallSlots - 1; k >= 0; --k) free_slots[t].push_back(k);

  constexpr int kRungs = sizeof(kRates) / sizeof(kRates[0]);
  std::vector<std::vector<double>> lat(kRungs);  // ms from due; inf = failed
  std::vector<double> updates(kRungs, 0.0);
  std::vector<Submitted> sent;
  std::vector<double> late_ms;
  std::uint64_t wrong = 0, polls = 0, sent_count = 0;
  double last_poll = now_s(), poll_gaps = 0;

  // One thread both sends and reaps, so the load keeps at most three cores
  // busy (this thread and two gangs): with all four busy, any other
  // runnable thread on the host stalls a gang for a whole time slice.
  //
  // Reaping stamps each ready future on the benchmark's clock and checks
  // the served output against the pool's verified digest.
  const auto reap = [&] {
    const double now = now_s();
    poll_gaps += now - last_poll;
    last_poll = now;
    ++polls;
    for (std::size_t i = 0; i < live.size();) {
      Pending& p = live[i];
      if (p.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++i;
        continue;
      }
      const double ready = now_s();
      double ms = std::numeric_limits<double>::infinity();
      try {
        const Scheduler::Result res = p.fut.get();
        if (digest(slots[p.type][p.slot]) == pools[p.type].expect[p.input]) {
          ms = (ready - p.due) * 1e3;
          updates[p.rung] += pools[p.type].c.updates();
        } else {
          ++wrong;  // and a failure, through the infinite latency
        }
        if (tr.on()) {
          const std::int64_t rid = tr.new_rid();
          const std::int64_t root = tr.add("request", p.due, ready, -1, rid);
          tr.add("scheduler.submit", p.call_start, p.call_end, root, rid);
          sent.push_back(
              {p.call_start, p.call_end, res.dispatch_seq, res.coalesced, root, rid});
        }
      } catch (...) {
        // Counted as a failure through the infinite latency.
      }
      lat[p.rung].push_back(ms);
      free_slots[p.type].push_back(p.slot);
      live[i] = std::move(live.back());
      live.pop_back();
    }
  };

  // Seeded Poisson arrivals, sent on schedule whatever the backlog, one
  // rung after another. Latency counts from the due time.
  int rps_rung = -1;
  for (int k = 0; k < kRungs; ++k) {
    const double rate = kRates[k];
    const double span = a.seconds * (k == kNominalRung ? 0.4 : 0.12);
    Rng rng(hash64(a.seed, 400 + static_cast<std::uint64_t>(k)));
    const std::uint64_t shed0 = sched->stats().shed;
    const double start = now_s() + 1e-3;
    double due = start;
    bool overloaded = false;
    int type = 0, input = 0;
    tsv::ServiceClass cls = tsv::ServiceClass::kBatch;
    for (bool first = true;; first = false) {
      due += rng.exponential(1.0 / rate);
      if (due >= start + span) break;
      // 10% exact duplicates of the previous request (coalescing bait);
      // otherwise a random pool input, half interactive.
      if (first || !rng.chance(0.1)) {
        type = static_cast<int>(rng.next() % static_cast<std::uint64_t>(ntypes));
        input = static_cast<int>(rng.next() % kSmallPool);
        cls = rng.chance(0.5) ? tsv::ServiceClass::kInteractive
                              : tsv::ServiceClass::kBatch;
      }
      // Reap while waiting, without sleeping: on a virtual machine a
      // sleeping thread's core idles and can take hundreds of microseconds
      // to wake, which would be stamped onto the latencies.
      while (now_s() < due) reap();
      late_ms.push_back((now_s() - due) * 1e3);
      if (free_slots[type].empty()) {  // kSmallSlots of one type outstanding
        overloaded = true;
        break;
      }
      const int slot = free_slots[type].back();
      free_slots[type].pop_back();
      const Pool& p = pools[type];
      copy_grid(slots[type][slot], p.inputs[input]);
      Scheduler::Request req = make_request(slots[type][slot], p.spec, p.c.opts);
      req.cls = cls;
      if (cls == tsv::ServiceClass::kInteractive)
        req.deadline_ms = kInteractiveDeadlineMs;
      const double a0 = now_s();
      auto fut = sched->submit(std::move(req));
      const double a1 = now_s();
      ++sent_count;
      live.push_back({due, a0, a1, std::move(fut), type, input, slot, k});
    }
    // Backlog at the end of the send window: more than one SLO's worth of
    // arrivals still outstanding means the queue is growing.
    const double outstanding = static_cast<double>(live.size());
    const bool backlog = outstanding > rate * kSloMs * 1e-3 + 8.0;
    while (!live.empty()) reap();
    const std::uint64_t shed = sched->stats().shed - shed0;
    const double p99 = quantile(lat[k], 0.99);
    const bool ok = p99 <= kSloMs && shed == 0 && !overloaded && !backlog;
    if (ok) rps_rung = k;
    char key[32];
    std::snprintf(key, sizeof(key), "rung.%g", rate);
    r.set(std::string(key) + ".p99_ms", std::isinf(p99) ? -1.0 : p99, "ms");
    r.note(std::string(key) + ".slo_met", ok ? "yes" : "no");
    r.note(std::string(key) + ".outstanding_at_end", outstanding);
    // Rungs above nominal stop at the first miss: a higher rate only
    // queues deeper.
    if (!ok && k >= kNominalRung) break;
  }
  finish_scheduler(*sched, sent, c0, c1, r, tr);

  std::uint64_t failed = 0;
  for (const auto& v : lat)
    for (double ms : v) failed += std::isinf(ms) ? 1 : 0;
  r.attempted += sent_count;
  r.failed += failed;
  r.check(wrong == 0, "serve_small: " + std::to_string(wrong) +
                          " served outputs differ from the direct digest");

  std::vector<double> nominal;
  for (double ms : lat[kNominalRung])
    if (!std::isinf(ms)) nominal.push_back(ms);
  set_latency(r, nominal);
  r.set("gpts_per_s", updates[kNominalRung] / (a.seconds * 0.4) / 1e9,
        "Gpts/s");
  r.set("rps_at_slo", rps_rung >= 0 ? kRates[rps_rung] : 0.0, "req/s");
  r.set("gen.late_ms.p99", quantile(late_ms, 0.99), "ms");
  r.set("gen.reap_poll_us", poll_gaps / static_cast<double>(polls) * 1e6, "us");
  r.note("load_threads", 3.0);  // sender/reaper and two gangs

  return {pools[0].c, sc, 200};
}

// ===========================================================================
// serve_tiled: closed loop of large tessellated requests.
// ===========================================================================

LadderSpec serve_tiled(const RunArgs& a, Result& r, Tracer& tr) {
  // One client per gang, one thread per gang: each request is a
  // single-threaded tessellated sweep, and busy_threads() requests run at
  // once.
  const int nclients = busy_threads();
  constexpr int kTiledPool = 2;

  // Four plan types: 2d5p / 2d9p, zero or periodic boundary. A quarter of
  // the zero-boundary traffic also carries a generous timeout, which sends
  // it down the polled execution path without ever firing.
  std::vector<Pool> pools;
  for (StencilKind k : {StencilKind::k2d5p, StencilKind::k2d9p})
    for (tsv::Boundary b : {tsv::Boundary::kZero, tsv::Boundary::kPeriodic}) {
      const Options o{.method = Method::kTransposeUJ,
                      .tiling = Tiling::kTessellate,
                      .steps = 32,
                      .max_threads = 1,
                      .boundary = tsv::BoundarySpec::uniform(b)};
      pools.push_back(make_pool(
          make_config(k, Dtype::kF64, tsv::shape2d(1024, 512), o), kTiledPool,
          kTiledPool, hash64(a.seed, 500 + pools.size()), r));
    }

  tsv::SchedulerConfig sc;
  sc.executor = {.gangs = nclients, .threads_per_gang = 1};
  sc.retry_budget = 1;
  tsv::SchedulerConfig run_sc = sc;
  if (tr.on()) run_sc.trace_capacity = 1 << 16;

  // The clients' request grids are the benchmark's own buffers, allocated
  // once, as in serve_small.
  std::vector<AnyGrid> grids;
  for (int k = 0; k < nclients; ++k)
    grids.push_back(make_grid(pools[0].c.shape, Dtype::kF64));

  // Set-up: scheduler, one warm-up request per plan type.
  std::unique_ptr<Scheduler> sched;
  std::vector<double> setup;
  double c0 = 0, c1 = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sched.reset();
    c0 = now_s();
    sched = std::make_unique<Scheduler>(run_sc);
    c1 = now_s();
    for (const Pool& p : pools) {
      copy_grid(grids[0], p.inputs[0]);
      sched->submit(make_request(grids[0], p.spec, p.c.opts)).get();
    }
    setup.push_back(now_s() - c0);
  }
  set_setup(r, setup);

  struct ClientOut {
    std::vector<double> ms;
    std::vector<Submitted> sent;
    double updates = 0, last_done = 0;
    std::uint64_t attempted = 0, failed = 0, wrong = 0;
  };
  std::vector<ClientOut> outs(nclients);
  const double start = now_s();
  const double end = start + a.seconds;
  std::vector<std::thread> clients;
  for (int k = 0; k < nclients; ++k)
    clients.emplace_back([&, k] {
      ClientOut& out = outs[k];
      Rng rng(hash64(a.seed, 600 + static_cast<std::uint64_t>(k)));
      AnyGrid& g = grids[k];
      while (now_s() < end) {
        // Mix: 50% zero boundary, 25% zero with timeout, 25% periodic.
        const double u = rng.uniform();
        const bool periodic = u >= 0.75, timeout = u >= 0.5 && u < 0.75;
        const int type = static_cast<int>(rng.next() % 2) * 2 + (periodic ? 1 : 0);
        const int input = static_cast<int>(rng.next() % kTiledPool);
        const Pool& p = pools[type];
        copy_grid(g, p.inputs[input]);
        Scheduler::Request req = make_request(g, p.spec, p.c.opts);
        if (timeout) req.timeout_ms = 10'000.0;
        const std::int64_t rid = tr.new_rid();
        const double t0 = now_s();
        auto fut = sched->submit(std::move(req));
        const double t1 = now_s();
        ++out.attempted;
        try {
          const Scheduler::Result res = fut.get();
          const double t2 = now_s();
          if (digest(g) == p.expect[input]) {
            out.ms.push_back((t2 - t0) * 1e3);
            out.updates += p.c.updates();
          } else {
            ++out.wrong;
            ++out.failed;
          }
          out.last_done = t2;
          const std::int64_t root = tr.add("request", t0, t2, -1, rid);
          tr.add("scheduler.submit", t0, t1, root, rid);
          out.sent.push_back({t0, t1, res.dispatch_seq, res.coalesced, root, rid});
        } catch (...) {
          ++out.failed;
        }
      }
    });
  for (std::thread& t : clients) t.join();

  std::vector<double> ms;
  std::vector<Submitted> sent;
  double updates = 0, last = start;
  std::uint64_t wrong = 0;
  for (const ClientOut& o : outs) {
    ms.insert(ms.end(), o.ms.begin(), o.ms.end());
    sent.insert(sent.end(), o.sent.begin(), o.sent.end());
    updates += o.updates;
    last = std::max(last, o.last_done);
    r.attempted += o.attempted;
    r.failed += o.failed;
    wrong += o.wrong;
  }
  finish_scheduler(*sched, sent, c0, c1, r, tr);
  r.check(wrong == 0, "serve_tiled: " + std::to_string(wrong) +
                          " served outputs differ from the direct digest");
  set_latency(r, ms);
  r.set("gpts_per_s", updates / (last - start) / 1e9, "Gpts/s");
  // One-thread gangs; the clients block on their futures.
  r.note("load_threads", nclients);

  Config ladder = pools[0].c;  // 2d5p, zero boundary
  ladder.opts.threads = 1;
  return {ladder, sc, 7};
}

}  // namespace

std::vector<Config> sweep_configs() {
  // Two buffers of every grid fit in a 2 MB L2; the f32 grids hold twice
  // the points in the same bytes. Steps make each execute about 2^24
  // point updates (half that for the 53-flop 3d27p).
  Options o;
  o.method = Method::kTranspose;
  o.tiling = Tiling::kNone;
  struct Row {
    StencilKind kind;
    tsv::Shape f64, f32;
    index steps64;
  };
  const Row rows[] = {
      {StencilKind::k1d3p, tsv::shape1d(65536), tsv::shape1d(131072), 256},
      {StencilKind::k1d5p, tsv::shape1d(65536, 2), tsv::shape1d(131072, 2),
       256},
      {StencilKind::k2d5p, tsv::shape2d(256, 384), tsv::shape2d(512, 384), 160},
      {StencilKind::k2d9p, tsv::shape2d(256, 384), tsv::shape2d(512, 384), 160},
      {StencilKind::k3d7p, tsv::shape3d(64, 32, 32), tsv::shape3d(256, 32, 16),
       256},
      {StencilKind::k3d27p, tsv::shape3d(64, 32, 32),
       tsv::shape3d(256, 32, 16), 128},
  };
  std::vector<Config> out;
  for (const Row& row : rows) {
    Options o64 = o, o32 = o;
    o64.steps = row.steps64;
    o32.steps = row.steps64 / 2;
    out.push_back(make_config(row.kind, Dtype::kF64, row.f64, o64));
    out.push_back(make_config(row.kind, Dtype::kF32, row.f32, o32));
  }
  return out;
}

LadderSpec run_workload(const RunArgs& a, Result& r, Tracer& tr) {
  if (a.workload == "sweep_l2") return sweep_l2(a, r, tr);
  if (a.workload == "solve_dram") return solve_dram(a, r, tr);
  if (a.workload == "serve_small") return serve_small(a, r, tr);
  if (a.workload == "serve_tiled") return serve_tiled(a, r, tr);
  throw std::invalid_argument("unknown workload " + a.workload);
}

}  // namespace tsvbench
