// Figure 12 (beyond the paper) — open-loop serving latency under load.
//
// Drives the Scheduler (core/scheduler.hpp) with an open-loop Poisson
// arrival process over a mixed workload:
//
//   interactive  small 1D heat requests (sub-millisecond service), 50 ms
//                deadline — the latency-sensitive class
//   batch        2D heat requests calibrated to ~tens of milliseconds of
//                service each, sized so the batch class alone offers ~0.8
//                utilization of the (default) single gang — bursts form
//                real queues, which is the regime deadline scheduling is for
//
// Open-loop means arrivals do NOT wait for completions: the driver submits
// at the scheduled instant no matter how far behind the server is, so
// queueing delay shows up in the latency distribution instead of being
// absorbed by a closed feedback loop (the standard methodology for tail
// latency — a closed loop coordinates omissions away).
//
// Every run executes TWICE: once under SchedPolicy::kDeadline (the product
// configuration) and once under SchedPolicy::kFifo as the control arm —
// identical arrivals, grids, admission and accounting, no reordering. The
// binary FAILS unless the deadline policy's interactive p99 beats FIFO's
// (the whole point of the scheduler, asserted in-binary), and optionally
// enforces absolute gates for CI:
//
//   --max-p99-ms X      fail if deadline-policy interactive p99 > X ms
//   --max-shed-rate X   fail if deadline-policy shed+rejected fraction > X
//   --min-fifo-ratio X  fail if (FIFO p99) / (deadline p99) < X  (default 1,
//                       i.e. the in-binary assertion; CI passes a margin)
//   --gangs N           scheduler gangs (default 1: one server makes the
//                       dispatch policy the only variable)
//
// Batch service time is CALIBRATED (step count chosen from a timed probe),
// so offered utilization — and therefore the shape of the experiment — is
// machine-independent even though absolute latencies are not. Calibrated
// values and arrival counts are deliberately kept out of the JSON identity
// fields: records join across runners on (bench, kind, policy, class,
// gangs, dtype, boundary) alone, and everything measured (p50/p95/p99,
// shed, requests, req_per_s) is NON_IDENTITY in compare_baseline.py. The
// gate metric is req_per_s — completions over wall time, which an open-loop
// driver pins to the (fixed) arrival rate on ANY machine that keeps up, so
// compare_baseline.py treats it as load-bound: compared as an absolute
// ratio, not normalized by the machine-speed median.

#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

namespace {

using namespace bench;

struct Flags {
  int gangs = 1;
  double max_p99_ms = 0.0;     // 0 = no absolute gate
  double max_shed_rate = -1.0; // <0 = no gate
  double min_fifo_ratio = 1.0; // in-binary assertion floor
};

Flags parse_extra(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--gangs") && i + 1 < argc)
      f.gangs = std::atoi(argv[++i]);
    else if (!std::strcmp(argv[i], "--max-p99-ms") && i + 1 < argc)
      f.max_p99_ms = std::atof(argv[++i]);
    else if (!std::strcmp(argv[i], "--max-shed-rate") && i + 1 < argc)
      f.max_shed_rate = std::atof(argv[++i]);
    else if (!std::strcmp(argv[i], "--min-fifo-ratio") && i + 1 < argc)
      f.min_fifo_ratio = std::atof(argv[++i]);
  }
  return f;
}

struct Scenario {
  double horizon_s;
  double rate_interactive_hz;
  double rate_batch_hz;
  double batch_target_s;   ///< calibrated per-request batch service time
  double deadline_i_ms;
  double deadline_b_ms;
  std::size_t queue_capacity;
  tsv::index nx_i, nx_b;
  tsv::index steps_i;
};

struct Arrival {
  double t;
  tsv::ServiceClass cls;
};

/// Two independent Poisson streams merged into one time-sorted schedule.
std::vector<Arrival> make_schedule(const Scenario& sc) {
  std::vector<Arrival> plan;
  for (double t : poisson_arrivals(sc.rate_interactive_hz, sc.horizon_s, 101))
    plan.push_back({t, tsv::ServiceClass::kInteractive});
  for (double t : poisson_arrivals(sc.rate_batch_hz, sc.horizon_s, 202))
    plan.push_back({t, tsv::ServiceClass::kBatch});
  std::sort(plan.begin(), plan.end(),
            [](const Arrival& a, const Arrival& b) { return a.t < b.t; });
  return plan;
}

/// Service time of one batch request at @p steps, from a timed
/// single-threaded run (the gang runs requests single-threaded too,
/// threads_per_gang = 1). Second run timed: the first pays first-touch.
double time_batch(tsv::index nx_b, tsv::index steps) {
  MixSlot s;
  s.reset(1, nx_b, steps);
  s.o.max_threads = 1;
  const auto plan = tsv::make_plan(tsv::shape_of(*s.g2), s.spec, s.o);
  plan.execute(*s.g2);
  s.reset(1, nx_b, steps);
  tsv::Timer t;
  plan.execute(*s.g2);
  return std::max(t.seconds(), 1e-6);
}

/// Picks the batch step count whose service time lands on target_s. A
/// 64-step probe gives the first estimate and a probe at that estimate
/// corrects it: per-execute fixed costs (layout transforms, ghost fills)
/// weigh more in 64 steps than in the ~1000+ a request runs, so one short
/// probe over-estimates the per-step cost and under-loads the server.
tsv::index calibrate_batch_steps(tsv::index nx_b, double target_s) {
  tsv::index steps = 64;
  for (int pass = 0; pass < 2; ++pass) {
    const double scaled =
        static_cast<double>(steps) * target_s / time_batch(nx_b, steps);
    steps = std::clamp<tsv::index>(static_cast<tsv::index>(scaled), 16, 4096);
  }
  return steps;
}

/// One class's outcome over a run.
struct ClassOut {
  std::uint64_t arrivals = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;  ///< OverloadError observed through the future
  std::uint64_t missed = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0, mean_ms = 0;
  double req_per_s = 0;
};

struct RunOut {
  ClassOut cls[tsv::kServiceClasses];
  std::uint64_t coalesced = 0;
  double wall_s = 0;
};

/// Grid slots recycled across requests of one class. A slot is reusable
/// once its future resolved; the vector may reallocate while requests are
/// in flight — safe, the grids live behind unique_ptrs and GridRef points
/// at the heap objects, not the slots.
struct Pool {
  struct Pending {
    std::future<tsv::Scheduler::Result> fut;
    std::size_t slot;
  };
  std::vector<MixSlot> slots;
  std::vector<Pending> busy;
  std::vector<std::size_t> free;
};

void settle(Pool::Pending& p, ClassOut& out) {
  try {
    const tsv::Scheduler::Result r = p.fut.get();
    ++out.completed;
    if (r.deadline_missed) ++out.missed;
  } catch (const tsv::OverloadError&) {
    ++out.shed;
  }
}

/// Reaps every resolved future, then returns a free slot (growing the pool
/// when every slot is in flight — bounded by queue capacity + gangs, since
/// overflow submissions resolve immediately as OverloadError).
std::size_t acquire(Pool& pool, ClassOut& out) {
  for (std::size_t i = 0; i < pool.busy.size();) {
    if (pool.busy[i].fut.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      settle(pool.busy[i], out);
      pool.free.push_back(pool.busy[i].slot);
      pool.busy[i] = std::move(pool.busy.back());
      pool.busy.pop_back();
    } else {
      ++i;
    }
  }
  if (pool.free.empty()) {
    pool.slots.emplace_back();
    return pool.slots.size() - 1;
  }
  const std::size_t s = pool.free.back();
  pool.free.pop_back();
  return s;
}

RunOut drive(tsv::SchedPolicy policy, const Scenario& sc,
             const std::vector<Arrival>& schedule, tsv::index steps_b,
             int gangs) {
  tsv::SchedulerConfig cfg;
  cfg.executor = {.gangs = gangs, .threads_per_gang = 1};
  cfg.queue_capacity = sc.queue_capacity;
  cfg.policy = policy;
  tsv::Scheduler sched(cfg);

  // Warmup: build both plans through the scheduler so plan construction
  // (validation, layout binding, workspace sizing) never lands in a
  // measured latency.
  {
    MixSlot w;
    w.reset(0, sc.nx_i, sc.steps_i);
    sched.submit({w.grid_ref(), w.spec, w.o}).get();
    w.reset(1, sc.nx_b, steps_b);
    sched.submit({w.grid_ref(), w.spec, w.o}).get();
  }

  Pool pools[tsv::kServiceClasses];
  RunOut out;
  int fill_seq[tsv::kServiceClasses] = {0, 0};

  tsv::Timer wall;
  const auto t0 = tsv::Scheduler::Clock::now();
  for (const Arrival& a : schedule) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<tsv::Scheduler::Clock::duration>(
                 std::chrono::duration<double>(a.t)));
    const bool inter = a.cls == tsv::ServiceClass::kInteractive;
    const int c = static_cast<int>(a.cls);
    ClassOut& co = out.cls[c];
    ++co.arrivals;
    Pool& pool = pools[c];
    const std::size_t si = acquire(pool, co);
    MixSlot& slot = pool.slots[si];
    // Distinct fill ids => distinct grid contents => no accidental
    // coalescing: every arrival is real work (even id = 1D, odd = 2D).
    slot.reset(2 * fill_seq[c]++ + (inter ? 0 : 1),
               inter ? sc.nx_i : sc.nx_b, inter ? sc.steps_i : steps_b);
    pool.busy.push_back(
        {sched.submit({slot.grid_ref(), slot.spec, slot.o, a.cls,
                       inter ? sc.deadline_i_ms : sc.deadline_b_ms,
                       inter ? "dash" : "etl"}),
         si});
  }
  for (Pool& pool : pools)
    for (Pool::Pending& p : pool.busy)
      settle(p, out.cls[&pool - pools]);
  out.wall_s = wall.seconds();

  const tsv::SchedulerStats st = sched.stats();
  out.coalesced = st.coalesced;
  for (int c = 0; c < tsv::kServiceClasses; ++c) {
    const tsv::LatencyHistogram& h =
        st.latency_of(static_cast<tsv::ServiceClass>(c));
    ClassOut& co = out.cls[c];
    co.p50_ms = h.quantile(0.50) * 1e3;
    co.p95_ms = h.quantile(0.95) * 1e3;
    co.p99_ms = h.quantile(0.99) * 1e3;
    co.mean_ms = h.mean_seconds() * 1e3;
    co.req_per_s =
        static_cast<double>(co.completed) / std::max(out.wall_s, 1e-9);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::setup_omp();
  const Config cfg = Config::parse(argc, argv);
  const Flags flags = parse_extra(argc, argv);
  print_header("Figure 12: open-loop serving latency (deadline vs FIFO)");

  Scenario sc;
  sc.nx_i = 4096;
  sc.nx_b = 65536;  // 2D 1024x32
  sc.steps_i = 16;
  sc.deadline_i_ms = 50.0;
  sc.deadline_b_ms = 2000.0;
  if (cfg.smoke) {
    sc.horizon_s = 2.0;
    sc.rate_interactive_hz = 40.0;
    sc.rate_batch_hz = 40.0;
    sc.batch_target_s = 0.020;  // x 40/s = 0.8 offered utilization
    sc.queue_capacity = 48;
  } else {
    sc.horizon_s = 8.0;
    sc.rate_interactive_hz = 60.0;
    sc.rate_batch_hz = 32.0;
    sc.batch_target_s = 0.025;  // x 32/s = 0.8 offered utilization
    sc.queue_capacity = 64;
  }

  const tsv::index steps_b = calibrate_batch_steps(sc.nx_b, sc.batch_target_s);
  const std::vector<Arrival> schedule = make_schedule(sc);
  std::printf(
      "arrivals: %zu over %.1fs (interactive %.0f/s, batch %.0f/s), "
      "batch steps = %td (~%.0f ms target), gangs = %d\n\n",
      schedule.size(), sc.horizon_s, sc.rate_interactive_hz, sc.rate_batch_hz,
      steps_b, sc.batch_target_s * 1e3, flags.gangs);

  JsonSink json(cfg.json_path);
  CsvSink csv(cfg.csv_path,
              "fig,policy,class,requests,p50_ms,p99_ms,shed,missed");

  const char* policy_names[] = {"edf", "fifo"};
  RunOut runs[2];
  for (int p = 0; p < 2; ++p) {
    runs[p] = drive(p == 0 ? tsv::SchedPolicy::kDeadline
                           : tsv::SchedPolicy::kFifo,
                    sc, schedule, steps_b, flags.gangs);
    std::printf("policy %-5s (wall %.2fs, coalesced %llu)\n", policy_names[p],
                runs[p].wall_s,
                static_cast<unsigned long long>(runs[p].coalesced));
    std::printf("  %-12s %9s %9s %9s %9s %7s %6s %6s\n", "class", "p50 ms",
                "p95 ms", "p99 ms", "mean ms", "done", "shed", "miss");
    for (int c = 0; c < tsv::kServiceClasses; ++c) {
      const ClassOut& co = runs[p].cls[c];
      const char* cname =
          tsv::service_class_name(static_cast<tsv::ServiceClass>(c));
      std::printf("  %-12s %9.2f %9.2f %9.2f %9.2f %7llu %6llu %6llu\n",
                  cname, co.p50_ms, co.p95_ms, co.p99_ms, co.mean_ms,
                  static_cast<unsigned long long>(co.completed),
                  static_cast<unsigned long long>(co.shed),
                  static_cast<unsigned long long>(co.missed));
      csv.row("12,%s,%s,%llu,%.3f,%.3f,%llu,%llu", policy_names[p], cname,
              static_cast<unsigned long long>(co.arrivals), co.p50_ms,
              co.p99_ms, static_cast<unsigned long long>(co.shed),
              static_cast<unsigned long long>(co.missed));
      json.record(
          "{\"bench\":\"fig12\",\"kind\":\"openloop\",\"policy\":\"%s\","
          "\"class\":\"%s\",\"gangs\":%d,\"dtype\":\"f64\","
          "\"boundary\":\"%s\",\"requests\":%llu,\"p50_ms\":%.3f,"
          "\"p95_ms\":%.3f,\"p99_ms\":%.3f,\"mean_ms\":%.3f,"
          "\"deadline_missed\":%llu,\"shed\":%llu,\"shed_rate\":%.4f,"
          "\"coalesced\":%llu,\"req_per_s\":%.2f}",
          policy_names[p], cname, flags.gangs, boundary_field_name(),
          static_cast<unsigned long long>(co.arrivals), co.p50_ms, co.p95_ms,
          co.p99_ms, co.mean_ms, static_cast<unsigned long long>(co.missed),
          static_cast<unsigned long long>(co.shed),
          co.arrivals ? static_cast<double>(co.shed) /
                            static_cast<double>(co.arrivals)
                      : 0.0,
          static_cast<unsigned long long>(runs[p].coalesced),
          co.req_per_s);
    }
    std::printf("\n");
  }

  // ---- gates ---------------------------------------------------------------
  bool ok = true;
  const ClassOut& edf_i =
      runs[0].cls[static_cast<int>(tsv::ServiceClass::kInteractive)];
  const ClassOut& fifo_i =
      runs[1].cls[static_cast<int>(tsv::ServiceClass::kInteractive)];
  const double ratio = edf_i.p99_ms > 0 ? fifo_i.p99_ms / edf_i.p99_ms : 0.0;
  std::printf("interactive p99: deadline %.2f ms vs FIFO %.2f ms "
              "(ratio %.2fx)\n",
              edf_i.p99_ms, fifo_i.p99_ms, ratio);
  if (ratio < std::max(flags.min_fifo_ratio, 1.0)) {
    // The scheduler's reason to exist, asserted every run: reordering must
    // buy the interactive class tail latency vs the FIFO control arm.
    std::fprintf(stderr,
                 "fig12: FIFO/deadline interactive p99 ratio %.2f below "
                 "required %.2f\n",
                 ratio, std::max(flags.min_fifo_ratio, 1.0));
    ok = false;
  }
  if (flags.max_p99_ms > 0 && edf_i.p99_ms > flags.max_p99_ms) {
    std::fprintf(stderr, "fig12: interactive p99 %.2f ms over gate %.2f ms\n",
                 edf_i.p99_ms, flags.max_p99_ms);
    ok = false;
  }
  if (flags.max_shed_rate >= 0) {
    std::uint64_t shed = 0, arrivals = 0;
    for (const ClassOut& co : runs[0].cls) {
      shed += co.shed;
      arrivals += co.arrivals;
    }
    const double rate =
        arrivals ? static_cast<double>(shed) / static_cast<double>(arrivals)
                 : 0.0;
    if (rate > flags.max_shed_rate) {
      std::fprintf(stderr, "fig12: shed rate %.4f over gate %.4f\n", rate,
                   flags.max_shed_rate);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
