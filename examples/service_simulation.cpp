// Multi-tenant service simulation: three tenants with different physics and
// different SLOs share one deadline-aware Scheduler (core/scheduler.hpp)
// over multiple rounds — the serving shape the scheduler subsystem exists
// for, with its own pool of worker gangs.
//
//   ./service_simulation [rounds]
//
//   tenant A  2D heat plate, custom conductivity (StencilSpec coefficients),
//             zero halo, tessellate+transpose — INTERACTIVE, 250 ms deadline
//   tenant B  1D smoothing on a ring (periodic), float, transpose layout —
//             INTERACTIVE; a dashboard duplicate of session 0 rides along
//             every round and must coalesce onto the queued original
//   tenant C  3D insulated diffusion (Neumann), compiler-vectorized — BATCH;
//             round 0 carries an impossible 1 us deadline, so exactly its
//             two sessions must complete late and be counted as misses
//
// Each round is built under pause() and released with resume(): admission
// decisions (coalescing, quota) become deterministic, so the demo can
// SELF-CHECK the serving layer exactly — coalesced == rounds, deadline
// misses == 2, nothing shed, per-tenant in-flight never above the quota —
// on top of the physics: after all rounds every session must match the
// boundary-aware scalar oracle advanced the same total number of steps,
// and the plan cache must show exactly one construction per distinct
// configuration (the coalesced duplicate triggers none).
//
// A held-layout round then serves tessellated transpose requests
// that carry a timeout or a periodic boundary — the requests whose plan
// polls its control between time blocks or writes ghost images through,
// inside the layout — and checks them bit for bit against the serial
// plan, with the scheduler counting exactly one polled execute per timeout
// request.
//
// The run ends with one observability scrape (core/metrics.hpp): the final
// Prometheus exposition is printed, three conservation invariants are
// spot-checked by hand, and the full metrics_check_invariants audit must
// come back empty — docs/OBSERVABILITY.md documents every exported family.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "tsv/kernels/reference.hpp"
#include "tsv/tsv.hpp"

namespace {

constexpr tsv::index kStepsA = 4, kStepsB = 3, kStepsC = 2;

template <typename G, typename S>
bool check_session(const G& got, G& oracle, const S& stencil,
                   tsv::index total_steps, const tsv::BoundarySpec& bc,
                   const char* tenant) {
  using T = typename S::value_type;
  tsv::reference_run(oracle, stencil, total_steps, bc);
  const double diff = tsv::max_abs_diff(oracle, got);
  const double tol = tsv::accuracy_tolerance<T>(total_steps);
  std::printf("  tenant %s: max|got - oracle| = %.3g (tolerance %.3g)\n",
              tenant, diff, tol);
  if (diff > tol) {
    std::fprintf(stderr, "tenant %s diverged from the oracle\n", tenant);
    return false;
  }
  return true;
}

void drain(std::vector<std::future<tsv::Scheduler::Result>>& futs) {
  for (auto& f : futs) f.get();  // rethrows ConfigError / OverloadError
  futs.clear();
}

// ---- chaos round ----------------------------------------------------------
// Fault tolerance with EXACT accounting. Three transients are injected with
// COUNT triggers (fire on the first N passes through the point, independent
// of the rng seed — so every counter below is a hard assertion on any
// machine), one session is cancelled while queued, and one is admitted with
// an already-spent wall-clock budget:
//
//   workspace.alloc  count=2 \  each fire surfaces as TransientError and is
//   executor.dispatch count=1 /  absorbed by the scheduler's retry budget
//
// Ledger: 6 submitted = 4 completed + 1 cancelled + 1 timed out; retries
// exactly 3, budget never exhausted; the two failed sessions' grids stay
// bit-untouched (both faults strike before execution mutates anything) and
// the four survivors land bit-identical to a fault-free serial run.
bool chaos_round() {
  constexpr int kSessions = 4;
  constexpr tsv::index kNx = 512, kSteps = 4;
  std::printf(
      "chaos round: 3 count-triggered transients, 1 cancel, 1 zero budget\n");

  tsv::FaultInjector& fi = tsv::FaultInjector::instance();
  fi.reset();
  fi.arm("workspace.alloc", {.count = 2});   // arm() force-enables injection
  fi.arm("executor.dispatch", {.count = 1});

  const tsv::StencilSpec spec{.kind = tsv::StencilKind::k1d3p};
  tsv::Options o;
  o.method = tsv::Method::kTranspose;
  o.steps = kSteps;
  o.max_threads = 1;

  // kSessions survivors + the cancel victim + the timeout victim, all with
  // distinct contents so nothing coalesces; `inputs` keeps pristine copies
  // for the untouched checks and the serial baseline.
  std::vector<std::unique_ptr<tsv::Grid1D<double>>> grids;
  std::vector<tsv::Grid1D<double>> inputs;
  for (int s = 0; s < kSessions + 2; ++s) {
    grids.push_back(std::make_unique<tsv::Grid1D<double>>(kNx, 1));
    grids.back()->fill([s](tsv::index x) {
      return 0.25 + 1e-3 * static_cast<double>((13 * x + 7 * s) % 101);
    });
    inputs.push_back(*grids.back());
  }

  bool ok = true;
  tsv::Scheduler sched({.executor = {.gangs = 2, .threads_per_gang = 1},
                        .retry_budget = 8,
                        .retry_backoff_ms = 0.05,
                        .retry_backoff_max_ms = 0.5});
  sched.pause();  // queue the whole round, then release: deterministic fate
  std::vector<std::future<tsv::Scheduler::Result>> futs;
  for (int s = 0; s < kSessions; ++s)
    futs.push_back(sched.submit(*grids[s], spec, o,
                                tsv::ServiceClass::kInteractive,
                                /*deadline_ms=*/0.0, "chaos"));
  tsv::CancelToken quit = tsv::CancelToken::make();
  auto cancel_fut =
      sched.submit({tsv::Scheduler::GridRef{grids[kSessions].get()}, spec, o,
                    tsv::ServiceClass::kInteractive, /*deadline_ms=*/0.0,
                    "chaos", /*timeout_ms=*/0.0, quit});
  auto timeout_fut =
      sched.submit({tsv::Scheduler::GridRef{grids[kSessions + 1].get()}, spec,
                    o, tsv::ServiceClass::kBatch, /*deadline_ms=*/0.0,
                    "chaos", /*timeout_ms=*/0.001});
  quit.cancel();  // cancelled while queued: pruned at dispatch, never run
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // budget spent
  sched.resume();

  for (auto& f : futs) {
    try {
      f.get();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "chaos: survivor failed: %s\n", e.what());
      ok = false;
    }
  }
  try {
    cancel_fut.get();
    std::fprintf(stderr, "chaos: cancelled session completed\n");
    ok = false;
  } catch (const tsv::CancelledError&) {
  }
  try {
    timeout_fut.get();
    std::fprintf(stderr, "chaos: zero-budget session completed\n");
    ok = false;
  } catch (const tsv::TimeoutError&) {
  }

  const tsv::SchedulerStats st = sched.stats();
  std::printf(
      "  submitted %llu: completed %llu, cancelled %llu, timed out %llu "
      "(retries %llu, exhausted %llu)\n",
      static_cast<unsigned long long>(st.submitted),
      static_cast<unsigned long long>(st.completed),
      static_cast<unsigned long long>(st.cancelled),
      static_cast<unsigned long long>(st.timed_out),
      static_cast<unsigned long long>(st.retries),
      static_cast<unsigned long long>(st.retry_exhausted));
  const bool ledger =
      st.submitted == kSessions + 2 && st.completed == kSessions &&
      st.failed == 2 && st.cancelled == 1 && st.timed_out == 1 &&
      st.retries == 3 && st.retry_exhausted == 0 && st.coalesced == 0 &&
      st.shed == 0 && st.rejected == 0 &&
      st.executor.workspaces.in_flight == 0;
  if (!ledger) {
    std::fprintf(stderr, "chaos: serving ledger does not balance\n");
    ok = false;
  }

  // Disarm, then hold the service to its word: failed sessions untouched,
  // survivors bit-identical to a fault-free serial run of the same plan.
  fi.reset();
  fi.set_enabled(false);
  for (int s = kSessions; s < kSessions + 2; ++s)
    if (tsv::max_abs_diff(*grids[static_cast<std::size_t>(s)],
                          inputs[static_cast<std::size_t>(s)]) != 0.0) {
      std::fprintf(stderr, "chaos: failed session %d was mutated\n", s);
      ok = false;
    }
  for (int s = 0; s < kSessions; ++s) {
    tsv::Grid1D<double>& expect = inputs[static_cast<std::size_t>(s)];
    tsv::make_plan(tsv::shape_of(expect), spec, o).execute(expect);
    if (tsv::max_abs_diff(*grids[static_cast<std::size_t>(s)], expect) != 0.0) {
      std::fprintf(stderr, "chaos: survivor %d not bit-identical\n", s);
      ok = false;
    }
  }
  std::printf("  retried work bit-identical, failed sessions untouched\n\n");
  return ok;
}

// ---- held-layout round -----------------------------------------------------
// Tessellated transpose requests, every one its own coalesce group
// (distinct contents): kTimed carry a generous timeout, so their plans poll
// the control after every time block without it ever firing; kPeriodic run
// a periodic boundary, writing each tile's ghost images through inside the
// layout at the plan's temporal block.
// Both kinds make one driver call per request; the served grids must be
// bit-identical to the serial plan, and polled_executes must count exactly
// the timeout groups.
bool held_layout_round() {
  constexpr int kTimed = 3, kPeriodic = 3;
  constexpr tsv::index kNx = 256, kNy = 48;
  std::printf("held-layout round: %d timeout + %d periodic tiled requests\n",
              kTimed, kPeriodic);

  const tsv::StencilSpec spec{.kind = tsv::StencilKind::k2d5p};
  tsv::Options o;
  o.method = tsv::Method::kTranspose;
  o.tiling = tsv::Tiling::kTessellate;
  o.steps = 13;  // odd: the last time block is partial
  o.bx = 128;
  o.by = 16;
  o.bt = 4;
  o.max_threads = 1;
  tsv::Options periodic = o;
  periodic.boundary = tsv::BoundarySpec::uniform(tsv::Boundary::kPeriodic);

  std::vector<std::unique_ptr<tsv::Grid2D<double>>> grids;
  std::vector<tsv::Grid2D<double>> expect;
  for (int s = 0; s < kTimed + kPeriodic; ++s) {
    grids.push_back(std::make_unique<tsv::Grid2D<double>>(kNx, kNy, 1));
    grids.back()->fill([s](tsv::index x, tsv::index y) {
      return 0.3 + 1e-3 * static_cast<double>((x + 5 * y + 17 * s) % 97);
    });
    expect.push_back(*grids.back());
    tsv::make_plan(tsv::shape_of(expect.back()), spec,
                   s < kTimed ? o : periodic)
        .execute(expect.back());
  }

  tsv::Scheduler sched({.executor = {.gangs = 2, .threads_per_gang = 1}});
  sched.pause();
  std::vector<std::future<tsv::Scheduler::Result>> futs;
  for (int s = 0; s < kTimed + kPeriodic; ++s) {
    const bool timed = s < kTimed;
    futs.push_back(sched.submit(
        {tsv::Scheduler::GridRef{grids[static_cast<std::size_t>(s)].get()},
         spec, timed ? o : periodic, tsv::ServiceClass::kBatch,
         /*deadline_ms=*/0.0, "held", /*timeout_ms=*/timed ? 60'000.0 : 0.0}));
  }
  sched.resume();
  bool ok = true;
  try {
    drain(futs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "held-layout: request failed: %s\n", e.what());
    return false;
  }
  for (int s = 0; s < kTimed + kPeriodic; ++s)
    if (tsv::max_abs_diff(*grids[static_cast<std::size_t>(s)],
                          expect[static_cast<std::size_t>(s)]) != 0.0) {
      std::fprintf(stderr, "held-layout: request %d not bit-identical\n", s);
      ok = false;
    }
  const tsv::SchedulerStats st = sched.stats();
  std::printf("  completed %llu, coalesced %llu, polled executes %llu\n\n",
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.coalesced),
              static_cast<unsigned long long>(st.polled_executes));
  if (st.completed != kTimed + kPeriodic || st.coalesced != 0 ||
      st.polled_executes != kTimed) {
    std::fprintf(stderr,
                 "held-layout: expected %d completed, 0 coalesced and %d "
                 "polled executes\n",
                 kTimed + kPeriodic, kTimed);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 3;

  tsv::Scheduler sched({.executor = {.gangs = 4, .threads_per_gang = 2},
                        .queue_capacity = 64,
                        .max_inflight_per_tenant = 2});
  std::printf(
      "service simulation: %d gangs x %d threads, %d rounds, "
      "tenant quota 2\n\n",
      sched.gangs(), sched.threads_per_gang(), rounds);

  // ---- tenant A: 2D heat plate, runtime conductivity, tiled ---------------
  const tsv::StencilSpec spec_a{.kind = tsv::StencilKind::k2d5p,
                                .coeffs = {0.6, 0.11, 0.09}};
  tsv::Options opt_a;
  opt_a.method = tsv::Method::kTranspose;
  opt_a.tiling = tsv::Tiling::kTessellate;
  opt_a.steps = kStepsA;
  opt_a.boundary = tsv::BoundarySpec::uniform(tsv::Boundary::kZero);
  std::vector<std::unique_ptr<tsv::Grid2D<double>>> sessions_a;
  for (int s = 0; s < 3; ++s) {
    sessions_a.push_back(std::make_unique<tsv::Grid2D<double>>(256, 32, 1));
    sessions_a.back()->fill([s](tsv::index x, tsv::index y) {
      return 0.2 + 1e-3 * static_cast<double>((x + 3 * y + 7 * s) % 89);
    });
  }

  // ---- tenant B: 1D periodic smoothing, float -----------------------------
  const tsv::StencilSpec spec_b{.kind = tsv::StencilKind::k1d3p,
                                .coeffs = {1.0f / 3.0f}};
  tsv::Options opt_b;
  opt_b.method = tsv::Method::kTranspose;
  opt_b.steps = kStepsB;
  opt_b.boundary = tsv::BoundarySpec::uniform(tsv::Boundary::kPeriodic);
  std::vector<std::unique_ptr<tsv::Grid1D<float>>> sessions_b;
  for (int s = 0; s < 3; ++s) {
    sessions_b.push_back(std::make_unique<tsv::Grid1D<float>>(512, 1));
    sessions_b.back()->fill([s](tsv::index x) {
      return static_cast<float>(0.1 + 1e-3 * static_cast<double>((5 * x + s) % 71));
    });
  }

  // ---- tenant C: 3D insulated diffusion (Neumann walls) -------------------
  const tsv::StencilSpec spec_c{.kind = tsv::StencilKind::k3d7p,
                                .coeffs = {0.4, 0.1, 0.1, 0.1}};
  tsv::Options opt_c;
  opt_c.method = tsv::Method::kAutoVec;
  opt_c.steps = kStepsC;
  opt_c.boundary = tsv::BoundarySpec::uniform(tsv::Boundary::kNeumann);
  std::vector<std::unique_ptr<tsv::Grid3D<double>>> sessions_c;
  for (int s = 0; s < 2; ++s) {
    sessions_c.push_back(std::make_unique<tsv::Grid3D<double>>(48, 10, 8, 1));
    sessions_c.back()->fill([s](tsv::index x, tsv::index y, tsv::index z) {
      return 0.3 + 1e-3 * static_cast<double>((x + 3 * y + 5 * z + 11 * s) % 83);
    });
  }

  // Oracle twins of session 0 of each tenant, advanced serially at the end.
  tsv::Grid2D<double> oracle_a = *sessions_a[0];
  tsv::Grid1D<float> oracle_b = *sessions_b[0];
  tsv::Grid3D<double> oracle_c = *sessions_c[0];

  // ---- rounds -------------------------------------------------------------
  // pause() -> submit the round -> resume(): every submission of a round is
  // queued before any dispatches, so the dashboard duplicate ALWAYS finds
  // tenant B's session 0 still queued and coalesces onto it, every round.
  bool ok = true;
  std::vector<std::future<tsv::Scheduler::Result>> futs;
  for (int r = 0; r < rounds; ++r) {
    sched.pause();
    for (auto& g : sessions_a)
      futs.push_back(sched.submit(*g, spec_a, opt_a,
                                  tsv::ServiceClass::kInteractive,
                                  /*deadline_ms=*/250.0, "tenant-a"));
    for (auto& g : sessions_b)
      futs.push_back(sched.submit(*g, spec_b, opt_b,
                                  tsv::ServiceClass::kInteractive,
                                  /*deadline_ms=*/0.0, "tenant-b"));
    // Round 0's batch work carries a deadline that already passed when it
    // was admitted: it still completes (shedding only happens under queue
    // pressure), but must be accounted as missed — exactly 2 sessions.
    const double deadline_c = r == 0 ? 0.001 : 0.0;
    for (auto& g : sessions_c)
      futs.push_back(sched.submit(*g, spec_c, opt_c,
                                  tsv::ServiceClass::kBatch, deadline_c,
                                  "tenant-c"));
    // The dashboard duplicate: same stencil, options and CONTENTS as the
    // queued session 0 of tenant B — served by one execution, fanned out.
    tsv::Grid1D<float> dup = *sessions_b[0];
    auto dup_fut = sched.submit(dup, spec_b, opt_b,
                                tsv::ServiceClass::kInteractive,
                                /*deadline_ms=*/0.0, "dashboard");
    sched.resume();
    drain(futs);
    const tsv::Scheduler::Result dup_r = dup_fut.get();
    if (!dup_r.coalesced || tsv::max_abs_diff(dup, *sessions_b[0]) != 0.0f) {
      std::fprintf(stderr,
                   "round %d: dashboard duplicate not coalesced "
                   "bit-identically\n", r);
      ok = false;
    }
  }

  const tsv::SchedulerStats st = sched.stats();
  std::printf("submitted %llu (coalesced %llu), completed %llu, failed %llu, "
              "shed %llu, missed %llu\n",
              static_cast<unsigned long long>(st.submitted),
              static_cast<unsigned long long>(st.coalesced),
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.failed),
              static_cast<unsigned long long>(st.shed + st.rejected),
              static_cast<unsigned long long>(st.deadline_missed));
  for (int c = 0; c < tsv::kServiceClasses; ++c) {
    const auto& h = st.latency[static_cast<std::size_t>(c)];
    std::printf("  %-12s %llu done, p50 %.2f ms, p99 %.2f ms\n",
                tsv::service_class_name(static_cast<tsv::ServiceClass>(c)),
                static_cast<unsigned long long>(h.count()),
                h.quantile(0.5) * 1e3, h.quantile(0.99) * 1e3);
  }
  std::printf(
      "plan cache: %llu hits / %llu misses (%zu entries); workspaces: %llu "
      "created, %llu reused\n\n",
      static_cast<unsigned long long>(st.executor.plan_cache.hits),
      static_cast<unsigned long long>(st.executor.plan_cache.misses),
      st.executor.plan_cache.entries,
      static_cast<unsigned long long>(st.executor.workspaces.created),
      static_cast<unsigned long long>(st.executor.workspaces.reused));

  // ---- serving-layer self-checks ------------------------------------------
  ok = ok && st.failed == 0 && st.completed == st.admitted &&
       st.shed == 0 && st.rejected == 0;
  if (st.coalesced != static_cast<std::uint64_t>(rounds)) {
    std::fprintf(stderr, "expected %d coalesced duplicates, saw %llu\n",
                 rounds, static_cast<unsigned long long>(st.coalesced));
    ok = false;
  }
  if (st.deadline_missed != 2) {  // tenant C's two round-0 sessions, no more
    std::fprintf(stderr, "expected 2 deadline misses, saw %llu\n",
                 static_cast<unsigned long long>(st.deadline_missed));
    ok = false;
  }
  if (st.peak_tenant_inflight > 2) {
    std::fprintf(stderr, "tenant quota breached: peak in-flight %zu > 2\n",
                 st.peak_tenant_inflight);
    ok = false;
  }
  // Three distinct configurations => exactly three plan constructions, no
  // matter how many sessions, rounds or racing workers — and the coalesced
  // duplicate never probed the cache at all.
  if (st.executor.plan_cache.misses != 3) {
    std::fprintf(stderr, "expected 3 plan-cache misses, saw %llu\n",
                 static_cast<unsigned long long>(st.executor.plan_cache.misses));
    ok = false;
  }
  if (st.executor.workspaces.in_flight != 0) {
    std::fprintf(stderr, "workspace leak: %zu still in flight\n",
                 st.executor.workspaces.in_flight);
    ok = false;
  }

  // ---- observability: one scrape of the whole serving stack ---------------
  // One wait_idle() quiesces everything the strict identities audit.
  sched.wait_idle();
  tsv::MetricsRegistry reg;
  reg.attach(&sched);
  const tsv::MetricsSnapshot m = reg.snapshot();
  std::printf("---- final Prometheus scrape ----\n%s----\n",
              tsv::metrics_to_prometheus(m).c_str());

  // Three spot-checked conservation invariants, by hand so the example shows
  // WHAT an operator should alert on...
  const tsv::SchedulerStats& ms = m.scheduler;
  std::uint64_t latency_n = 0;
  for (const auto& h : ms.latency) latency_n += h.count();
  struct {
    const char* what;
    bool holds;
  } invariants[] = {
      {"admission balances: admitted + rejected == submitted",
       ms.admitted + ms.rejected == ms.submitted},
      {"every completion is timed: sum(latency counts) == completed",
       latency_n == ms.completed},
      {"drained: completed + failed + shed == admitted, 0 in flight",
       ms.completed + ms.failed + ms.shed == ms.admitted && ms.inflight == 0 &&
           ms.executor.workspaces.in_flight == 0},
  };
  for (const auto& inv : invariants) {
    std::printf("invariant: %-60s %s\n", inv.what, inv.holds ? "OK" : "VIOLATED");
    ok &= inv.holds;
  }
  // ...then the full audit: every always-true AND idle-only identity.
  for (const std::string& v : tsv::metrics_check_invariants(m, /*idle=*/true)) {
    std::fprintf(stderr, "metrics invariant violated: %s\n", v.c_str());
    ok = false;
  }

  const auto total = [rounds](tsv::index per) { return rounds * per; };
  ok &= check_session(*sessions_a[0], oracle_a,
                      tsv::make_2d5p(0.6, 0.11, 0.09), total(kStepsA),
                      opt_a.boundary, "A (2D heat, tiled)");
  ok &= check_session(*sessions_b[0], oracle_b, tsv::make_1d3p<float>(1.0f / 3.0f),
                      total(kStepsB), opt_b.boundary, "B (1D periodic, f32)");
  ok &= check_session(*sessions_c[0], oracle_c,
                      tsv::make_3d7p(0.4, 0.1, 0.1, 0.1), total(kStepsC),
                      opt_c.boundary, "C (3D Neumann)");

  std::printf("\n");
  ok &= held_layout_round();
  ok &= chaos_round();

  std::printf("%s\n", ok ? "service simulation: OK" : "service simulation: FAILED");
  return ok ? 0 : 1;
}
