// Chaos suite for the resilience layer (core/fault.hpp, core/health.hpp,
// and the retry/timeout/cancel paths threaded through
// Scheduler -> PlanCache -> Plan).
//
// Every test is DETERMINISTIC: the injector's per-point splitmix64 streams
// replay exactly under a fixed seed, trigger counts (`once`, `count`) are
// exact, and ordering-sensitive scenarios are built under Scheduler::pause.
// The suite's core claims:
//   * every fault point fires pre-mutation, so a retried request is
//     BIT-identical to a fault-free run;
//   * a fault can fail a future but never strand one, and never leaks a
//     workspace lease;
//   * error types match the taxonomy (TransientError / TimeoutError /
//     CancelledError / NumericalError), and the scheduler's
//     cancelled/timed_out/retries/retry_exhausted counters add up.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tsv/tsv.hpp"
#include "test_support.hpp"

namespace tsv {
namespace {

using test::fifo_pool;
using test::gang_tasks;

template <typename T>
T noise(index salt, index lin) {
  return static_cast<T>(0.25 +
                        1e-3 * static_cast<double>((salt * 31 + lin * 7) % 101));
}

Options opts(Method m, Tiling t, index steps) {
  Options o;
  o.method = m;
  o.tiling = t;
  o.steps = steps;
  return o;
}

/// Mirrors the scheduler's option normalization so a serial
/// baseline resolves to the exact plan a gang runs.
Options normalized(Options o, int threads_per_gang) {
  o.dtype = dtype_of<double>();
  o.max_threads = o.max_threads > 0 ? std::min(o.max_threads, threads_per_gang)
                                    : threads_per_gang;
  return o;
}

struct Req {
  std::unique_ptr<Grid1D<double>> grid;
  std::future<Scheduler::Result> fut;

  explicit Req(index salt, index nx = 512) {
    grid = std::make_unique<Grid1D<double>>(nx, 1);
    grid->fill([salt](index x) { return noise<double>(salt, x); });
  }
};

Grid1D<double> serial_expected(index salt, const Options& o,
                               int threads_per_gang, index nx = 512) {
  Grid1D<double> g(nx, 1);
  g.fill([salt](index x) { return noise<double>(salt, x); });
  make_plan(shape_of(g), StencilSpec{.kind = StencilKind::k1d3p},
            normalized(o, threads_per_gang))
      .execute(g);
  return g;
}

const Options kRun = opts(Method::kTranspose, Tiling::kNone, 4);
const StencilSpec kSpec{.kind = StencilKind::k1d3p};

/// Every injector-touching test starts and ends with a quiet injector so
/// the suite's tests cannot leak armed points into each other (or into
/// other suites in the same binary).
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector& fi = FaultInjector::instance();
    fi.seed(0x5eed);  // also clears per-point stats
    fi.reset();
    fi.set_enabled(false);
  }
  void TearDown() override {
    FaultInjector& fi = FaultInjector::instance();
    fi.reset();
    fi.set_enabled(false);
  }
};

// ---------------------------------------------------------------------------
// Error taxonomy: classification, lineage, transience.
// ---------------------------------------------------------------------------

TEST(FaultTaxonomy, TransientClassification) {
  const auto ep = [](auto e) { return std::make_exception_ptr(e); };
  EXPECT_TRUE(is_transient_error(ep(TransientError("t"))));
  EXPECT_TRUE(is_transient_error(ep(std::bad_alloc{})));
  EXPECT_FALSE(is_transient_error(ep(TimeoutError("t"))));
  EXPECT_FALSE(is_transient_error(ep(CancelledError("c"))));
  EXPECT_FALSE(is_transient_error(
      ep(ConfigError(Method::kTranspose, Tiling::kNone, 1, "c"))));
  EXPECT_FALSE(is_transient_error(ep(OverloadError("o"))));
  EXPECT_FALSE(is_transient_error(ep(NumericalError("n", 3))));
  EXPECT_FALSE(is_transient_error(ep(std::runtime_error("r"))));
  EXPECT_FALSE(is_transient_error(std::exception_ptr{}));
}

TEST(FaultTaxonomy, ExistingErrorsKeepLineageAndJoinTaxonomy) {
  // ConfigError: still a std::invalid_argument (old catch sites compile and
  // fire), now also a TsvError (new catch sites span the taxonomy).
  const auto bad_config = [] {
    return ConfigError(Method::kTranspose, Tiling::kNone, 1, "bad");
  };
  try {
    throw bad_config();
  } catch (const std::invalid_argument&) {
  }
  try {
    throw bad_config();
  } catch (const TsvError& e) {
    EXPECT_FALSE(e.is_transient());
  }
  try {
    throw OverloadError("full");
  } catch (const TsvError& e) {
    EXPECT_FALSE(e.is_transient());
  }
  try {
    throw NumericalError("nan", 42);
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.first_bad_index(), 42);
  }
}

TEST(FaultTaxonomy, ExecControlCancelWinsOverTimeout) {
  ExecControl none;
  EXPECT_FALSE(none.active());
  EXPECT_NO_THROW(none.check());

  ExecControl expired;
  expired.deadline = ExecControl::Clock::now() - std::chrono::milliseconds(1);
  EXPECT_TRUE(expired.active());
  EXPECT_THROW(expired.check(), TimeoutError);

  ExecControl cancelled;
  cancelled.cancelled = [] { return true; };
  EXPECT_TRUE(cancelled.active());
  EXPECT_THROW(cancelled.check(), CancelledError);

  ExecControl both = expired;
  both.cancelled = [] { return true; };
  EXPECT_THROW(both.check(), CancelledError);  // the caller's word wins

  CancelToken inert;
  EXPECT_FALSE(inert.valid());
  EXPECT_FALSE(inert.cancelled());
  inert.cancel();  // no-op, not a crash
  CancelToken live = CancelToken::make();
  CancelToken alias = live;  // copies share the flag
  live.cancel();
  EXPECT_TRUE(alias.cancelled());
}

// ---------------------------------------------------------------------------
// The injector itself: deterministic replay, trigger modes, point registry.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, SeedReplaysTheExactFaultSchedule) {
  FaultInjector& fi = FaultInjector::instance();
  const auto draw_pattern = [&] {
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      bool f = false;
      try {
        fault_point(FaultSite::kKernelSweep);
      } catch (const TransientError&) {
        f = true;
      }
      fired.push_back(f);
    }
    return fired;
  };

  fi.arm("kernel.sweep", {.probability = 0.5});
  fi.seed(1234);
  const std::vector<bool> a = draw_pattern();
  const auto sa = fi.stats("kernel.sweep");
  EXPECT_EQ(sa.passes, 64u);
  EXPECT_GT(sa.fires, 0u);
  EXPECT_LT(sa.fires, 64u);

  fi.arm("kernel.sweep", {.probability = 0.5});  // arm() keeps counters
  fi.seed(1234);                                 // rewind stream + counters
  EXPECT_EQ(draw_pattern(), a) << "same seed must replay the same schedule";

  fi.seed(99);  // a different seed diverges (with 2^-64 collision odds)
  EXPECT_NE(draw_pattern(), a);
}

TEST_F(FaultTest, TriggerModesOnceCountProbabilityAndRegistry) {
  FaultInjector& fi = FaultInjector::instance();

  fi.arm("plan.build", {.once = true});
  EXPECT_THROW(fault_point(FaultSite::kPlanBuild), TransientError);
  EXPECT_NO_THROW(fault_point(FaultSite::kPlanBuild));  // once disarmed itself
  EXPECT_EQ(fi.stats("plan.build").fires, 1u);

  fi.seed(0x5eed);  // clear counters
  fi.arm("workspace.alloc", {.count = 3});
  for (int i = 0; i < 3; ++i)
    EXPECT_THROW(fault_point(FaultSite::kWorkspaceAlloc), TransientError);
  EXPECT_NO_THROW(fault_point(FaultSite::kWorkspaceAlloc));
  EXPECT_EQ(fi.stats("workspace.alloc").fires, 3u);
  EXPECT_EQ(fi.stats("workspace.alloc").passes, 4u);

  fi.disarm("workspace.alloc");
  EXPECT_NO_THROW(fault_point(FaultSite::kWorkspaceAlloc));

  // probability 0 never fires; probability 1 always fires.
  fi.arm("executor.dispatch", {.probability = 0.0});
  EXPECT_NO_THROW(fault_point(FaultSite::kGangDispatch));
  fi.arm("executor.dispatch", {.probability = 1.0});
  EXPECT_THROW(fault_point(FaultSite::kGangDispatch), TransientError);

  EXPECT_THROW(fi.arm("no.such.point", {}), std::out_of_range);
  // The retired sharded-plan exchange site is no longer a point.
  EXPECT_THROW(fi.arm(std::string("shard") + ".exchange", {}),
               std::out_of_range);
  EXPECT_THROW(fi.disarm("no.such.point"), std::out_of_range);
  EXPECT_THROW(fi.stats("no.such.point"), std::out_of_range);

  // Name table round-trips through the enum.
  EXPECT_STREQ(fault_site_name(FaultSite::kWorkspaceAlloc), "workspace.alloc");
  EXPECT_STREQ(fault_site_name(FaultSite::kKernelSweep), "kernel.sweep");
  EXPECT_STREQ(fault_site_name(FaultSite::kWorkspaceSlot), "workspace.slot");

  // Disabled injector: armed points are inert (the production fast path).
  fi.arm("plan.build", {.once = true});
  fi.set_enabled(false);
  EXPECT_NO_THROW(fault_point(FaultSite::kPlanBuild));
}

// ---------------------------------------------------------------------------
// Health scans: exact first-bad-index, scope semantics, name round-trip.
// ---------------------------------------------------------------------------

TEST(Health, ScanFindsFirstBadIndexPerScope) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  Grid1D<double> g1(64, 1);
  g1.fill([](index) { return 1.0; });
  EXPECT_NO_THROW(health_scan(g1, HealthCheck::kFull));
  g1.at(5) = kNaN;
  EXPECT_NO_THROW(health_scan(g1, HealthCheck::kOff));
  EXPECT_NO_THROW(health_scan(g1, HealthCheck::kBoundary));  // 5 is interior
  try {
    health_scan(g1, HealthCheck::kFull);
    FAIL() << "full scan missed the NaN";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.first_bad_index(), 5);
  }
  g1.at(5) = 1.0;
  g1.at(0) = kInf;  // boundary "ring" of a 1D grid: the two edge cells
  EXPECT_THROW(health_scan(g1, HealthCheck::kBoundary), NumericalError);

  Grid2D<double> g2(8, 5, 1);
  g2.fill([](index, index) { return 1.0; });
  g2.at(3, 2) = kNaN;  // strictly interior
  EXPECT_NO_THROW(health_scan(g2, HealthCheck::kBoundary));
  try {
    health_scan(g2, HealthCheck::kFull);
    FAIL() << "full scan missed the NaN";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.first_bad_index(), 3 + 8 * 2);
  }
  g2.at(3, 2) = 1.0;
  g2.at(0, 2) = kInf;  // on the ring
  try {
    health_scan(g2, HealthCheck::kBoundary);
    FAIL() << "boundary scan missed the edge Inf";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.first_bad_index(), 0 + 8 * 2);
  }

  Grid3D<double> g3(4, 3, 5, 1);
  g3.fill([](index, index, index) { return 1.0; });
  g3.at(1, 2, 3) = -kInf;
  try {
    health_scan(g3, HealthCheck::kFull);
    FAIL() << "full scan missed the Inf";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.first_bad_index(), 1 + 4 * (2 + 3 * 3));
  }

  EXPECT_STREQ(health_check_name(HealthCheck::kOff), "off");
  EXPECT_STREQ(health_check_name(HealthCheck::kBoundary), "boundary");
  EXPECT_STREQ(health_check_name(HealthCheck::kFull), "full");
  EXPECT_EQ(health_check_from_name("boundary"), HealthCheck::kBoundary);
  EXPECT_THROW(health_check_from_name("bogus"), std::invalid_argument);
}

TEST(Health, PlanExecuteGuardsOutputWhenOptedIn) {
  Grid1D<double> g(512, 1);
  g.fill([](index x) { return noise<double>(1, x); });
  g.at(100) = std::numeric_limits<double>::quiet_NaN();

  Options off = kRun;  // default health_check = kOff: NaN propagates silently
  Grid1D<double> g_off = g;
  EXPECT_NO_THROW(make_plan(shape_of(g_off), kSpec, off).execute(g_off));

  Options full = kRun;
  full.health_check = HealthCheck::kFull;
  EXPECT_THROW(make_plan(shape_of(g), kSpec, full).execute(g), NumericalError);

  // A clean grid passes the guard with the result untouched by the scan.
  Grid1D<double> clean(512, 1), witness(512, 1);
  clean.fill([](index x) { return noise<double>(2, x); });
  witness.fill([](index x) { return noise<double>(2, x); });
  make_plan(shape_of(clean), kSpec, full).execute(clean);
  make_plan(shape_of(witness), kSpec, off).execute(witness);
  EXPECT_EQ(max_abs_diff(clean, witness), 0.0);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation/timeout inside a plan: the plan polls at dispatch
// and after every time block (one step for an untiled plan), and a polled
// run must be bit-identical to the plain one — asserted via the exact
// k-step prefix a mid-run cancel leaves behind.
// ---------------------------------------------------------------------------

TEST(ExecControlPlan, CancelBetweenStepsLeavesExactStepPrefix) {
  Grid1D<double> g(512, 1);
  g.fill([](index x) { return noise<double>(3, x); });

  // Checks land at dispatch, then before steps 2, 3, 4: the third check
  // aborts, so exactly 2 of the 4 steps ran.
  int checks = 0;
  ExecControl ctl;
  ctl.cancelled = [&checks] { return ++checks > 2; };

  WorkspacePool pool;
  auto ws = pool.checkout();
  const Plan plan = make_plan(shape_of(g), kSpec, kRun);  // steps = 4
  EXPECT_THROW(plan.execute(g, *ws, &ctl), CancelledError);

  Grid1D<double> two_steps(512, 1);
  two_steps.fill([](index x) { return noise<double>(3, x); });
  make_plan(shape_of(two_steps), kSpec,
            opts(Method::kTranspose, Tiling::kNone, 2))
      .execute(two_steps);
  EXPECT_EQ(max_abs_diff(two_steps, g), 0.0)
      << "per-step slicing diverged from the unsliced plan";

  // An already-expired deadline aborts at dispatch: zero steps, input intact.
  Grid1D<double> untouched(512, 1), original(512, 1);
  untouched.fill([](index x) { return noise<double>(4, x); });
  original.fill([](index x) { return noise<double>(4, x); });
  ExecControl late;
  late.deadline = ExecControl::Clock::now() - std::chrono::milliseconds(1);
  auto ws2 = pool.checkout();
  EXPECT_THROW(plan.execute(untouched, *ws2, &late), TimeoutError);
  EXPECT_EQ(max_abs_diff(untouched, original), 0.0);
}

// ---------------------------------------------------------------------------
// Held layout under a control: one driver call per execute, polled between
// time blocks of bt steps inside the layout. Counters and bits only.
// ---------------------------------------------------------------------------

TEST(HeldLayout, PolledRunPollsOncePerTimeBlock) {
  Options o = opts(Method::kTranspose, Tiling::kTessellate, 16);
  o.bx = 128;
  o.bt = 4;
  o.threads = 1;
  Grid1D<double> plain(512, 1);
  plain.fill([](index x) { return noise<double>(7, x); });
  Grid1D<double> polled = plain;
  const Plan plan = make_plan(shape_of(plain), kSpec, o);
  ASSERT_EQ(plan.config().bt, 4);
  plan.execute(plain);

  int polls = 0;
  ExecControl ctl;
  ctl.cancelled = [&polls] {
    ++polls;
    return false;
  };
  Workspace ws;
  plan.execute(polled, ws, &ctl);
  // One poll at dispatch, then one after each of the 16 / 4 time blocks.
  EXPECT_EQ(polls, 1 + 4);
  EXPECT_EQ(max_abs_diff(plain, polled), 0.0);
}

template <typename G>
G held_layout_grid(const Shape& sh) {
  G g = make_grid<G>({sh.nx, sh.ny, sh.nz}, sh.halo);
  if constexpr (G::kRank == 1)
    g.fill([](index x) { return noise<double>(8, x); });
  else if constexpr (G::kRank == 2)
    g.fill([](index x, index y) { return noise<double>(8, x + 613 * y); });
  else
    g.fill([](index x, index y, index z) {
      return noise<double>(8, x + 613 * y + 71 * z);
    });
  return g;
}

template <typename G>
void expect_cancel_leaves_block_prefix(const Shape& sh, StencilKind kind,
                                       const Options& o,
                                       const std::string& what) {
  const Plan plan = make_plan(sh, kind, o);
  const index bt = plan.config().bt;
  ASSERT_GT(bt, 1) << what;
  ASSERT_GT(o.steps, 2 * bt) << what;
  for (int k = 1; k <= 2; ++k) {
    // The dispatch poll and the polls after blocks 1..k-1 pass; the one
    // after block k fires.
    int polls = 0;
    ExecControl ctl;
    ctl.cancelled = [&polls, k] { return ++polls > k; };
    G got = held_layout_grid<G>(sh);
    Workspace ws;
    EXPECT_THROW(plan.execute(got, ws, &ctl), CancelledError) << what;

    Options ok = o;
    ok.steps = k * bt;
    G want = held_layout_grid<G>(sh);
    make_plan(sh, kind, ok).execute(want);
    EXPECT_EQ(max_abs_diff(want, got), 0.0)
        << what << ": cancel after block " << k;
  }
}

TEST(HeldLayout, CancelLeavesAWholeBlockPrefix) {
  const std::pair<Method, Tiling> cases[] = {{Method::kTranspose, Tiling::kTessellate},
                                {Method::kTransposeUJ, Tiling::kTessellate},
                                {Method::kDlt, Tiling::kSplit},
                                {Method::kGeneric, Tiling::kTessellate}};
  for (const auto& [method, tiling] : cases)
    for (int rank = 1; rank <= 3; ++rank) {
      Options o = opts(method, tiling, 13);  // a partial last time block
      o.bt = 4;
      o.bx = 128;
      o.by = 8;
      o.bz = 8;
      // threads = 0: the runtime default team — the machine's in an
      // ordinary run, one thread under the TSan job's OMP_NUM_THREADS=1.
      // TSan cannot see libgomp's fork/join handoff, so with a team of 2
      // every main-thread stack or heap word a worker reads reports as a
      // race, and symbolizing each before the suppressions drop it keeps
      // this test busy for minutes.
      const std::string what = std::string(method_name(method)) + "+" +
                               tiling_name(tiling) + " rank " +
                               std::to_string(rank);
      switch (rank) {
        case 1:
          expect_cancel_leaves_block_prefix<Grid1D<double>>(
              shape1d(512), StencilKind::k1d3p, o, what);
          break;
        case 2:
          expect_cancel_leaves_block_prefix<Grid2D<double>>(
              shape2d(256, 40), StencilKind::k2d9p, o, what);
          break;
        default:
          expect_cancel_leaves_block_prefix<Grid3D<double>>(
              shape3d(256, 20, 18), StencilKind::k3d7p, o, what);
          break;
      }
    }
}

// ---------------------------------------------------------------------------
// Injection through the gang pool without retry: each fault point surfaces
// with the right type, never strands a future, never leaks a workspace.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, WorkspaceAllocFaultFailsCleanlyThroughGangPool) {
  Scheduler ex(fifo_pool(1));
  FaultInjector::instance().arm("workspace.alloc", {.once = true});

  Grid1D<double> g(512, 1);
  g.fill([](index x) { return noise<double>(5, x); });
  EXPECT_THROW(ex.submit(g, kSpec, kRun).get(), TransientError);
  ex.wait_idle();

  // The lease never existed: nothing in flight, nothing leaked.
  SchedulerStats s = ex.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.executor.workspaces.in_flight, 0u);

  // The same request succeeds now (the point disarmed itself) and matches
  // the serial plan exactly — the fault fired before any mutation.
  g.fill([](index x) { return noise<double>(5, x); });
  EXPECT_NO_THROW(ex.submit(g, kSpec, kRun).get());
  EXPECT_EQ(max_abs_diff(serial_expected(5, kRun, 1), g), 0.0);
  EXPECT_EQ(ex.stats().executor.workspaces.in_flight, 0u);
}

TEST_F(FaultTest, DispatchFaultNeverStrandsTheFuture) {
  // Regression for the promise-fulfillment audit: a throw at the very top
  // of a group's run (before any plan/workspace state exists) must raise
  // into the future — a stranded future here deadlocks this .get().
  Scheduler ex(fifo_pool(1));
  FaultInjector::instance().arm("executor.dispatch", {.once = true});

  Grid1D<double> g(512, 1);
  g.fill([](index x) { return noise<double>(6, x); });
  std::future<Scheduler::Result> fut = ex.submit(g, kSpec, kRun);
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "the injected dispatch fault stranded the future";
  EXPECT_THROW(fut.get(), TransientError);
  ex.wait_idle();
  const SchedulerStats s = ex.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(gang_tasks(s), 1u);
}

TEST_F(FaultTest, PlanBuildFaultReleasesTheSingleFlightClaim) {
  Scheduler ex(fifo_pool(1));
  FaultInjector::instance().arm("plan.build", {.once = true});

  Grid1D<double> g(512, 1);
  g.fill([](index x) { return noise<double>(7, x); });
  EXPECT_THROW(ex.submit(g, kSpec, kRun).get(), TransientError);

  // The failed build released the entry's claim: the retry builds the plan
  // (a second MISS, not a hit on a half-made entry) and succeeds.
  g.fill([](index x) { return noise<double>(7, x); });
  EXPECT_NO_THROW(ex.submit(g, kSpec, kRun).get());
  EXPECT_EQ(max_abs_diff(serial_expected(7, kRun, 1), g), 0.0);
  const PlanCacheStats s = ex.stats().executor.plan_cache;
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 0u);
}

TEST_F(FaultTest, KernelSweepFaultSurfacesTransientAndPlanServesOn) {
  Scheduler ex(fifo_pool(1));
  FaultInjector::instance().arm("kernel.sweep", {.count = 1});

  Grid1D<double> g(512, 1);
  g.fill([](index x) { return noise<double>(8, x); });
  EXPECT_THROW(ex.submit(g, kSpec, kRun).get(), TransientError);
  ex.wait_idle();
  EXPECT_EQ(ex.stats().executor.workspaces.in_flight, 0u);

  // The sweep fault fired pre-mutation and the gang left the cached
  // plan alone: the next submit hits it and is bit-identical to the serial
  // plan.
  g.fill([](index x) { return noise<double>(8, x); });
  EXPECT_NO_THROW(ex.submit(g, kSpec, kRun).get());
  EXPECT_EQ(max_abs_diff(serial_expected(8, kRun, 1), g), 0.0);
  ex.wait_idle();
  const SchedulerStats s = ex.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.executor.plan_cache.misses, 1u);
  EXPECT_EQ(s.executor.plan_cache.hits, 1u);
  EXPECT_EQ(s.executor.workspaces.in_flight, 0u);
}

TEST_F(FaultTest, SchedulerRetriesKernelSweepFaultOnThePlannedKernel) {
  // Recovering from a fault must not leave the system slower: the
  // scheduler's retry re-runs the SAME cached plan at its planned ISA,
  // without a rebuild, and the result is bit-identical.
  FaultInjector::instance().arm("kernel.sweep", {.count = 1});
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1},
                   .retry_budget = 1,
                   .retry_backoff_ms = 0.05,
                   .retry_backoff_max_ms = 0.2});
  Req r(8);
  r.fut = sched.submit(*r.grid, kSpec, kRun);
  EXPECT_NO_THROW(r.fut.get());
  sched.wait_idle();

  const SchedulerStats st = sched.stats();
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.retries, 1u);
  EXPECT_EQ(st.retry_exhausted, 0u);
  EXPECT_EQ(st.executor.plan_cache.misses, 1u) << "the plan was rebuilt";
  EXPECT_EQ(FaultInjector::instance().stats("kernel.sweep").fires, 1u);

  const auto entry = sched.plan_cache().get(
      shape_of(*r.grid), kSpec, normalized(kRun, 1));
  EXPECT_EQ(entry->plan().config().isa, best_isa());
  EXPECT_EQ(sched.stats().executor.plan_cache.misses, 1u);
  EXPECT_EQ(max_abs_diff(serial_expected(8, kRun, 1), *r.grid), 0.0);
}

// ---------------------------------------------------------------------------
// workspace.slot: the one allocation inside a plan's execution. The plan
// creates every slot before its first write to the grid (TypedPlan::
// prepare), so a slot fault — like a real bad_alloc there — leaves the
// caller's grid bit-identical to its input, and a retry needs no snapshot.
// The configurations below would each write the grid before creating a
// slot without that ordering: the transpose layout pass, the uj ring and
// remainder parity buffer, a periodic ghost fill.
// ---------------------------------------------------------------------------

/// Every cell of @p a and @p b, ghosts included, has the same bits.
bool same_bits(const Grid2D<double>& a, const Grid2D<double>& b) {
  const index h = a.halo();
  for (index y = -h; y < a.ny() + h; ++y)
    if (std::memcmp(a.row(y) - h, b.row(y) - h,
                    static_cast<std::size_t>(a.nx() + 2 * h) *
                        sizeof(double)) != 0)
      return false;
  return true;
}

struct SlotCase {
  const char* what;
  StencilKind kind;
  Options o;
};

std::vector<SlotCase> slot_cases() {
  Options tess = opts(Method::kTranspose, Tiling::kTessellate, 3);
  tess.by = 8;
  tess.bt = 2;
  Options uj = opts(Method::kTransposeUJ, Tiling::kNone, 3);
  Options uj2 = opts(Method::kTransposeUJ, Tiling::kTessellate, 3);
  uj2.by = 8;
  uj2.bt = 2;
  Options periodic = tess;
  periodic.boundary = BoundarySpec::uniform(Boundary::kPeriodic);
  return {{"tessellated transpose", StencilKind::k2d5p, tess},
          {"untiled transpose-uj", StencilKind::k2d9p, uj},
          {"tessellated transpose-uj2", StencilKind::k2d5p, uj2},
          {"periodic tessellated transpose", StencilKind::k2d5p, periodic}};
}

Grid2D<double> slot_input() {
  Grid2D<double> g(256, 24, 1);
  const index h = g.halo();
  for (index y = -h; y < g.ny() + h; ++y)
    for (index x = -h; x < g.nx() + h; ++x)
      g.row(y)[x] = noise<double>(y + 5, x + 3);
  return g;
}

TEST_F(FaultTest, SlotFaultLeavesTheInputUntouchedWithoutRetry) {
  for (const SlotCase& c : slot_cases()) {
    FaultInjector::instance().arm("workspace.slot", {.count = 1});
    Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1}});
    const Grid2D<double> input = slot_input();
    Grid2D<double> g = input;
    EXPECT_THROW(sched.submit(g, StencilSpec{.kind = c.kind}, c.o).get(),
                 TransientError)
        << c.what;
    EXPECT_TRUE(same_bits(g, input)) << c.what << ": the grid was written";
    EXPECT_EQ(FaultInjector::instance().stats("workspace.slot").fires, 1u)
        << c.what;
    FaultInjector::instance().reset();
  }
}

TEST_F(FaultTest, SlotFaultRetriesBitIdenticalToTheSerialPlan) {
  for (const SlotCase& c : slot_cases()) {
    FaultInjector::instance().arm("workspace.slot", {.count = 1});
    Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1},
                     .retry_budget = 1,
                     .retry_backoff_ms = 0.0});
    Grid2D<double> g = slot_input();
    EXPECT_NO_THROW(
        sched.submit(g, StencilSpec{.kind = c.kind}, c.o).get())
        << c.what;
    sched.wait_idle();
    EXPECT_EQ(sched.stats().retries, 1u) << c.what;
    EXPECT_EQ(FaultInjector::instance().stats("workspace.slot").fires, 1u)
        << c.what;
    FaultInjector::instance().reset();

    Grid2D<double> expected = slot_input();
    make_plan(shape_of(expected), StencilSpec{.kind = c.kind},
              normalized(c.o, 1))
        .execute(expected);
    EXPECT_TRUE(same_bits(g, expected)) << c.what;
  }
}

// A retry keeps no copy of the grid: on a warm plan and workspace, a
// request whose sweep faults once and is retried allocates no buffer.
TEST_F(FaultTest, RetryTakesNoCopyOfTheGrid) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1},
                   .retry_budget = 1,
                   .retry_backoff_ms = 0.0});
  Req warm(8);
  EXPECT_NO_THROW(sched.submit(*warm.grid, kSpec, kRun).get());

  FaultInjector::instance().arm("kernel.sweep", {.count = 1});
  Req r(8);
  const std::uint64_t before = aligned_alloc_count();
  EXPECT_NO_THROW(sched.submit(*r.grid, kSpec, kRun).get());
  EXPECT_EQ(aligned_alloc_count() - before, 0u);
  sched.wait_idle();
  EXPECT_EQ(sched.stats().retries, 1u);
  EXPECT_EQ(max_abs_diff(serial_expected(8, kRun, 1), *r.grid), 0.0);
}

// ---------------------------------------------------------------------------
// Scheduler-level robustness: retries absorb transient faults bit-exactly,
// budgets bound the attempts, timeout/cancel surface with exact counters.
// ---------------------------------------------------------------------------

// The headline chaos run (mirrors the PR's acceptance gate): 200 mixed
// requests with 10% transient-fault probability at BOTH workspace.alloc and
// executor.dispatch. Every request must complete bit-identical to a
// fault-free run with zero exhausted retries and no unfulfilled future.
TEST_F(FaultTest, RetryAbsorbsInjectedTransientsBitIdentically) {
  FaultInjector& fi = FaultInjector::instance();
  fi.seed(20220530);  // deterministic schedule for this pass order
  fi.arm("workspace.alloc", {.probability = 0.1});
  fi.arm("executor.dispatch", {.probability = 0.1});

  // noise<T> is periodic in salt with period 101, so salts must stay below
  // 101 to keep grid contents pairwise distinct: the tail 100 submissions
  // repeat salts 0..99 and are the ONLY coalesce candidates.
  constexpr int kN = 200;
  constexpr int kDistinct = 100;
  std::vector<Req> reqs;
  {
    Scheduler sched({.executor = {.gangs = 2, .threads_per_gang = 1},
                     .retry_budget = 8,
                     .retry_backoff_ms = 0.05,
                     .retry_backoff_max_ms = 0.5});
    sched.pause();  // open coalescing windows for the duplicate salts
    for (int i = 0; i < kN; ++i) {
      const index salt = i < kDistinct ? i : i - kDistinct;
      reqs.emplace_back(salt);
      Scheduler::Request r{Scheduler::GridRef{reqs.back().grid.get()}, kSpec,
                           kRun,
                           i % 2 ? ServiceClass::kBatch
                                 : ServiceClass::kInteractive,
                           0.0, i % 3 ? "a" : "b"};
      reqs.back().fut = sched.submit(std::move(r));
    }
    sched.resume();

    for (auto& r : reqs) {
      ASSERT_EQ(r.fut.wait_for(std::chrono::seconds(60)),
                std::future_status::ready)
          << "a future went unfulfilled under fault injection";
      EXPECT_NO_THROW(r.fut.get());
    }
    sched.wait_idle();

    const SchedulerStats st = sched.stats();
    EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kN));
    EXPECT_EQ(st.completed, static_cast<std::uint64_t>(kN));
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.retry_exhausted, 0u);
    EXPECT_EQ(st.coalesced, static_cast<std::uint64_t>(kN - kDistinct));
    EXPECT_EQ(st.executor.workspaces.in_flight, 0u);
    // ~10% per point over hundreds of passes: statistically impossible to
    // see zero faults; the exact count is schedule-dependent.
    EXPECT_GT(st.retries, 0u);
  }  // scheduler drained and destroyed

  fi.reset();  // the serial baselines below must run fault-free
  for (int i = 0; i < kN; ++i) {
    const index salt = i < kDistinct ? i : i - kDistinct;
    const Grid1D<double> expected = serial_expected(salt, kRun, 1);
    EXPECT_EQ(max_abs_diff(expected, *reqs[static_cast<std::size_t>(i)].grid),
              0.0)
        << "request " << i << " not bit-identical to the fault-free run";
  }
}

TEST_F(FaultTest, RetryBudgetBoundsAttemptsThenSurfacesTransient) {
  FaultInjector::instance().arm("executor.dispatch",
                                {.count = 1000000});  // every pass faults
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1},
                   .retry_budget = 2,
                   .retry_backoff_ms = 0.05,
                   .retry_backoff_max_ms = 0.2});
  Req r(9);
  r.fut = sched.submit(*r.grid, kSpec, kRun);
  EXPECT_THROW(r.fut.get(), TransientError);
  sched.wait_idle();

  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.retries, 2u);          // budget spent exactly
  EXPECT_EQ(s.retry_exhausted, 1u);  // and the transient still surfaced
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.cancelled, 0u);
  EXPECT_EQ(s.timed_out, 0u);
  // 3 attempts = 3 passes through the dispatch point.
  EXPECT_EQ(FaultInjector::instance().stats("executor.dispatch").passes, 3u);
}

TEST(SchedulerRobustness, ImpossibleTimeoutFailsWithTimeoutError) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1}});
  sched.pause();
  Req r(10);
  Scheduler::Request req{Scheduler::GridRef{r.grid.get()}, kSpec, kRun,
                         ServiceClass::kInteractive, 0.0, ""};
  req.timeout_ms = 0.001;  // gone before dispatch can happen
  r.fut = sched.submit(std::move(req));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sched.resume();

  EXPECT_THROW(r.fut.get(), TimeoutError);
  sched.wait_idle();
  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.timed_out, 1u);  // subset of failed
  EXPECT_EQ(s.cancelled, 0u);
  EXPECT_EQ(s.completed, 0u);
  // The pruned request consumed no execution: its input grid is untouched.
  Grid1D<double> original(512, 1);
  original.fill([](index x) { return noise<double>(10, x); });
  EXPECT_EQ(max_abs_diff(original, *r.grid), 0.0);
}

TEST(SchedulerRobustness, CancelPrunesOneFollowerNotTheGroup) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1}});
  sched.pause();

  // Leader + two followers coalesce (same salt); one follower cancels
  // before dispatch. The group still executes for the live members — one
  // waiter's cancel must not take the shared result from the rest.
  Req leader(11), follower(11), quitter(11);
  leader.fut = sched.submit(*leader.grid, kSpec, kRun);
  follower.fut = sched.submit(*follower.grid, kSpec, kRun);
  CancelToken tok = CancelToken::make();
  Scheduler::Request req{Scheduler::GridRef{quitter.grid.get()}, kSpec, kRun,
                         ServiceClass::kBatch, 0.0, ""};
  req.cancel = tok;
  quitter.fut = sched.submit(std::move(req));
  tok.cancel();
  sched.resume();

  EXPECT_NO_THROW(leader.fut.get());
  EXPECT_NO_THROW(follower.fut.get());
  EXPECT_THROW(quitter.fut.get(), CancelledError);
  sched.wait_idle();

  const Grid1D<double> expected = serial_expected(11, kRun, 1);
  EXPECT_EQ(max_abs_diff(expected, *leader.grid), 0.0);
  EXPECT_EQ(max_abs_diff(expected, *follower.grid), 0.0);

  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.coalesced, 2u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.timed_out, 0u);
  // One group, one gang task, one execution.
  EXPECT_EQ(gang_tasks(s), 1u);
}

TEST(SchedulerRobustness, WholeGroupCancelledSkipsExecutionEntirely) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1}});
  sched.pause();
  Req r(12);
  CancelToken tok = CancelToken::make();
  Scheduler::Request req{Scheduler::GridRef{r.grid.get()}, kSpec, kRun,
                         ServiceClass::kBatch, 0.0, ""};
  req.cancel = tok;
  r.fut = sched.submit(std::move(req));
  tok.cancel();
  sched.resume();

  EXPECT_THROW(r.fut.get(), CancelledError);
  sched.wait_idle();
  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.failed, 1u);
  // No plan was built, no workspace checked out, the grid is untouched.
  EXPECT_EQ(s.executor.plan_cache.misses, 0u);
  EXPECT_EQ(s.executor.workspaces.in_flight, 0u);
  Grid1D<double> original(512, 1);
  original.fill([](index x) { return noise<double>(12, x); });
  EXPECT_EQ(max_abs_diff(original, *r.grid), 0.0);
}

// ---------------------------------------------------------------------------
// Racing submitters against live probability faults: whatever the
// interleaving, the counters must add up and nothing may leak. (The TSan
// and ASan jobs run this suite; the chaos CI job runs it with
// TSV_FAULT_INJECTION=1 as well.)
// ---------------------------------------------------------------------------

TEST_F(FaultTest, RacingSubmittersKeepCountersConsistentUnderFaults) {
  FaultInjector& fi = FaultInjector::instance();
  fi.seed(777);
  fi.arm("workspace.alloc", {.probability = 0.15});

  Scheduler sched({.executor = {.gangs = 2, .threads_per_gang = 1},
                   .retry_budget = 10,
                   .retry_backoff_ms = 0.05,
                   .retry_backoff_max_ms = 0.5});
  constexpr int kThreads = 4, kPerThread = 10;
  std::vector<Req> reqs;
  for (int i = 0; i < kThreads * kPerThread; ++i) reqs.emplace_back(i);

  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t)
    submitters.emplace_back([&, t] {
      for (int i = t; i < kThreads * kPerThread; i += kThreads)
        reqs[static_cast<std::size_t>(i)].fut = sched.submit(
            *reqs[static_cast<std::size_t>(i)].grid, kSpec, kRun,
            i % 2 ? ServiceClass::kBatch : ServiceClass::kInteractive,
            /*deadline_ms=*/0.0, i % 3 ? "x" : "y");
    });
  for (auto& t : submitters) t.join();
  for (auto& r : reqs) EXPECT_NO_THROW(r.fut.get());
  sched.wait_idle();

  fi.reset();  // fault-free serial baselines
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    const Grid1D<double> expected = serial_expected(i, kRun, 1);
    EXPECT_EQ(max_abs_diff(expected, *reqs[static_cast<std::size_t>(i)].grid),
              0.0);
  }
  const SchedulerStats s = sched.stats();
  const auto n = static_cast<std::uint64_t>(kThreads * kPerThread);
  EXPECT_EQ(s.submitted, n);
  EXPECT_EQ(s.admitted, n);
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.retry_exhausted, 0u);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.inflight, 0u);
  EXPECT_EQ(s.executor.workspaces.in_flight, 0u);
}

// ---------------------------------------------------------------------------
// Chaos-stats property: under seed-replayed injection, the observability
// snapshot's ledgers (core/metrics.hpp) must equal an INDEPENDENTLY
// computed ground truth — outcomes tallied from the futures themselves,
// and the cross-ledger conservation law tying the injector's pass/fire
// counts to the scheduler's retry ledger. Two runs under the same seed
// must produce identical ledgers (the injection schedule replays exactly).
// ---------------------------------------------------------------------------

TEST_F(FaultTest, ChaosStatsSnapshotMatchesGroundTruthAndReplays) {
  struct Ledger {
    std::uint64_t completed = 0, cancelled = 0, retries = 0;
    std::uint64_t passes = 0, fires = 0;
    std::uint64_t traces_c = 0, traces_x = 0;

    bool operator==(const Ledger&) const = default;
  };

  constexpr int kN = 30;
  // Fault-free serial baselines, computed BEFORE anything is armed: the
  // baseline executions must not contribute passes to the injector ledger.
  std::vector<Grid1D<double>> expected;
  for (int i = 0; i < kN; ++i) expected.push_back(serial_expected(i, kRun, 1));

  const auto run_once = [&](std::uint64_t seed) {
    FaultInjector& fi = FaultInjector::instance();
    fi.seed(seed);  // rewinds the streams AND clears per-point stats
    // One armed site keeps the conservation law exact: every execution
    // attempt passes workspace.alloc exactly once, every fire costs one
    // retry (the budget is deep enough that exhaustion is ~0.2^9 unlikely).
    fi.arm("workspace.alloc", {.probability = 0.2});

    Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1},
                     .retry_budget = 8,
                     .retry_backoff_ms = 0.05,
                     .retry_backoff_max_ms = 0.2,
                     .trace_capacity = kN});
    MetricsRegistry reg;
    reg.attach(&sched);

    // Independent ground truth: tally what the FUTURES report. Sequential
    // submit -> get keeps the injector's pass order deterministic (one
    // gang, one request in flight), so the schedule replays under a seed.
    std::uint64_t got_completed = 0, got_cancelled = 0;
    for (int i = 0; i < kN; ++i) {
      Req r(i);
      Scheduler::Request req{Scheduler::GridRef{r.grid.get()}, kSpec, kRun,
                             i % 2 ? ServiceClass::kBatch
                                   : ServiceClass::kInteractive};
      const bool doomed = i % 5 == 4;  // every 5th cancelled pre-submit
      if (doomed) {
        CancelToken tok = CancelToken::make();
        tok.cancel();
        req.cancel = tok;
      }
      std::future<Scheduler::Result> fut = sched.submit(std::move(req));
      try {
        fut.get();
        ++got_completed;
      } catch (const CancelledError&) {
        ++got_cancelled;
      }
      if (!doomed) {
        // Every live request must match the fault-free serial baseline
        // bit-for-bit (retried attempts replay on pristine input).
        EXPECT_EQ(
            max_abs_diff(expected[static_cast<std::size_t>(i)], *r.grid), 0.0)
            << "request " << i << " diverged under injected faults";
      }
    }
    sched.wait_idle();

    // Snapshot ledgers vs the ground truth.
    const MetricsSnapshot m = reg.snapshot();
    for (const std::string& v : metrics_check_invariants(m, /*idle=*/true))
      ADD_FAILURE() << "seed " << seed << ": " << v;
    EXPECT_EQ(m.scheduler.submitted, static_cast<std::uint64_t>(kN));
    EXPECT_EQ(m.scheduler.completed, got_completed);
    EXPECT_EQ(m.scheduler.failed, got_cancelled);
    EXPECT_EQ(m.scheduler.cancelled, got_cancelled);
    EXPECT_EQ(m.scheduler.timed_out, 0u);
    EXPECT_EQ(m.scheduler.retry_exhausted, 0u);
    EXPECT_EQ(got_completed + got_cancelled, static_cast<std::uint64_t>(kN));

    // Cross-ledger conservation: the injector's site counters and the
    // scheduler's retry ledger describe the SAME events.
    //   passes == executions == completed + retries   (cancelled: pruned,
    //   zero passes; no exhaustion, so every fire bought one retry)
    //   fires  == retries
    Ledger led;
    for (const FaultSiteStats& fs : m.faults)
      if (fs.site == "workspace.alloc") {
        led.passes = fs.stats.passes;
        led.fires = fs.stats.fires;
      }
    EXPECT_EQ(led.passes, m.scheduler.completed + m.scheduler.retries);
    EXPECT_EQ(led.fires, m.scheduler.retries);

    // The trace ring saw every dispatched group; its outcome tallies are a
    // third independent ledger.
    EXPECT_EQ(m.scheduler.traces.size(), static_cast<std::size_t>(kN));
    for (const TraceSpan& t : m.scheduler.traces) {
      if (t.outcome == 'C') ++led.traces_c;
      if (t.outcome == 'X') ++led.traces_x;
    }
    EXPECT_EQ(led.traces_c, got_completed);
    EXPECT_EQ(led.traces_x, got_cancelled);

    led.completed = m.scheduler.completed;
    led.cancelled = m.scheduler.cancelled;
    led.retries = m.scheduler.retries;
    return led;
  };

  const Ledger a = run_once(0x5eed);
  EXPECT_GT(a.fires, 0u) << "p=0.2 over dozens of passes must fire";
  const Ledger b = run_once(0x5eed);
  EXPECT_TRUE(a == b) << "same seed must replay the same ledgers";
  const Ledger c = run_once(20220530);
  EXPECT_EQ(c.completed, a.completed);  // outcomes are seed-independent...
  EXPECT_EQ(c.cancelled, a.cancelled);
}

}  // namespace
}  // namespace tsv
