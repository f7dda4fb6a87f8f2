// Concurrency suite for the Scheduler's gang pool (core/scheduler.hpp),
// driven as a plain batch executor: FIFO policy, no coalescing.
//
// The contract under test: the gangs change SCHEDULING, never numerics.
// N threads submitting M requests over mixed shapes/dtypes/boundaries must
// produce results bit-identical to running the same (grid, spec, options)
// serially through Plan::execute; the plan cache must deduplicate
// construction (hit/miss accounting is deterministic because insertion is
// atomic under the cache lock); the workspace pool must never hand one
// instance to two in-flight requests; plan-time failures must surface as
// ConfigError from future.get(), never crash a gang; and one wait_idle()
// quiesces the whole stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "tsv/tsv.hpp"
#include "test_support.hpp"

namespace tsv {
namespace {

using test::fifo_pool;
using test::gang_tasks;

// Deterministic per-(case, copy) noise so a serially computed baseline and
// a gang-computed grid start from identical bits.
template <typename T>
T noise(index salt, index lin) {
  return static_cast<T>(0.25 + 1e-3 * static_cast<double>((salt * 31 + lin * 7) % 101));
}

template <typename G>
G make_grid(const Shape& s) {
  return tsv::make_grid<G>({s.nx, s.ny, s.nz}, s.halo);
}

template <typename G>
void fill_noise(G& g, index salt) {
  using T = typename G::value_type;
  if constexpr (G::kRank == 1)
    g.fill([&](index x) { return noise<T>(salt, x); });
  else if constexpr (G::kRank == 2)
    g.fill([&](index x, index y) { return noise<T>(salt, x + 131 * y); });
  else
    g.fill([&](index x, index y, index z) {
      return noise<T>(salt, x + 131 * y + 1031 * z);
    });
}

/// Mirrors Scheduler::submit's option normalization so a serial baseline
/// resolves to the exact plan a gang runs.
template <typename G>
Options normalized(Options o, int threads_per_gang) {
  o.dtype = dtype_of<typename G::value_type>();
  o.max_threads = o.max_threads > 0 ? std::min(o.max_threads, threads_per_gang)
                                    : threads_per_gang;
  return o;
}

using Fut = std::future<Scheduler::Result>;

// One stress case: a (stencil spec, shape, options) configuration plus
// `copies` independent grids submitted through the gangs, verified
// bitwise against one serially executed baseline.
template <typename G>
class StressCase {
 public:
  StressCase(StencilSpec spec, Shape shape, Options o, int copies, index salt)
      : spec_(std::move(spec)), shape_(shape), o_(o), salt_(salt) {
    for (int c = 0; c < copies; ++c) {
      grids_.push_back(std::make_unique<G>(make_grid<G>(shape_)));
      fill_noise(*grids_.back(), salt_);
    }
  }

  /// One submit thunk per grid copy (called concurrently from N threads).
  void collect(std::vector<std::function<Fut(Scheduler&)>>& out) {
    for (auto& g : grids_)
      out.push_back([this, grid = g.get()](Scheduler& sched) {
        return sched.submit(*grid, spec_, o_);
      });
  }

  void verify(int threads_per_gang) {
    G expected = make_grid<G>(shape_);
    fill_noise(expected, salt_);
    const Plan serial =
        make_plan(shape_, spec_, normalized<G>(o_, threads_per_gang));
    serial.execute(expected);
    for (std::size_t c = 0; c < grids_.size(); ++c)
      EXPECT_EQ(max_abs_diff(expected, *grids_[c]),
                typename G::value_type(0))
          << "copy " << c << " diverged from serial Plan::execute";
  }

 private:
  StencilSpec spec_;
  Shape shape_;
  Options o_;
  index salt_;
  std::vector<std::unique_ptr<G>> grids_;
};

const StencilSpec kSpec1d3p{.kind = StencilKind::k1d3p};
const StencilSpec kSpec2d5p{.kind = StencilKind::k2d5p};

Options opts(Method m, Tiling t, index steps, BoundarySpec bc = {}) {
  Options o;
  o.method = m;
  o.tiling = t;
  o.steps = steps;
  o.boundary = bc;
  return o;
}

// ---------------------------------------------------------------------------
// The headline stress: 4 submitter threads x mixed shapes/dtypes/boundaries
// racing through one gang pool, every result bit-identical to serial.
// ---------------------------------------------------------------------------

TEST(GangPool, StressMixedRequestsBitIdenticalToSerial) {
  Scheduler ex(fifo_pool(4));
  constexpr int kCopies = 4;

  StressCase<Grid1D<double>> c1(
      StencilSpec{.kind = StencilKind::k1d3p, .coeffs = {0.31}}, shape1d(512),
      opts(Method::kTranspose, Tiling::kNone, 5,
           BoundarySpec::uniform(Boundary::kZero)),
      kCopies, 11);
  StressCase<Grid1D<float>> c2(
      StencilSpec{.kind = StencilKind::k1d3p, .coeffs = {0.3}}, shape1d(385),
      opts(Method::kMultiLoad, Tiling::kNone, 4,
           BoundarySpec::uniform(Boundary::kPeriodic)),
      kCopies, 23);
  StressCase<Grid2D<double>> c3(
      StencilSpec{.kind = StencilKind::k2d5p, .coeffs = {0.5, 0.12, 0.13}},
      shape2d(256, 24),
      [] {
        Options o = opts(Method::kTranspose, Tiling::kTessellate, 4,
                         {Boundary::kZero, Boundary::kNeumann, Boundary::kDirichlet});
        o.bx = 128;
        return o;
      }(),
      kCopies, 37);
  StressCase<Grid2D<float>> c4(
      StencilSpec{.kind = StencilKind::k2d9p, .coeffs = {0.2, 0.1, 0.05}},
      shape2d(130, 17), opts(Method::kAutoVec, Tiling::kNone, 3), kCopies, 41);
  StressCase<Grid3D<double>> c5(
      StencilSpec{.kind = StencilKind::k3d7p, .coeffs = {0.4, 0.1, 0.1, 0.09}},
      shape3d(64, 8, 6),
      opts(Method::kAutoVec, Tiling::kTessellate, 2,
           BoundarySpec::uniform(Boundary::kPeriodic)),
      kCopies, 53);
  StressCase<Grid1D<double>> c6(
      StencilSpec{.kind = StencilKind::k1d3p}, shape1d(512),
      opts(Method::kDlt, Tiling::kSplit, 6), kCopies, 67);

  std::vector<std::function<Fut(Scheduler&)>> jobs;
  c1.collect(jobs);
  c2.collect(jobs);
  c3.collect(jobs);
  c4.collect(jobs);
  c5.collect(jobs);
  c6.collect(jobs);

  // N submitter threads racing the submit path itself.
  constexpr int kSubmitters = 4;
  std::vector<Fut> futures(jobs.size());
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t)
    submitters.emplace_back([&, t] {
      for (std::size_t i = t; i < jobs.size(); i += kSubmitters)
        futures[i] = jobs[i](ex);
    });
  for (auto& t : submitters) t.join();
  for (auto& f : futures) EXPECT_NO_THROW(f.get());

  c1.verify(ex.threads_per_gang());
  c2.verify(ex.threads_per_gang());
  c3.verify(ex.threads_per_gang());
  c4.verify(ex.threads_per_gang());
  c5.verify(ex.threads_per_gang());
  c6.verify(ex.threads_per_gang());

  const SchedulerStats s = ex.stats();
  const ExecutorStats& e = s.executor;
  EXPECT_EQ(s.submitted, jobs.size());
  EXPECT_EQ(s.completed, jobs.size());
  EXPECT_EQ(s.failed, 0u);
  // 6 distinct configurations -> exactly 6 single-flighted builds.
  EXPECT_EQ(e.plan_cache.misses, 6u);
  EXPECT_EQ(e.plan_cache.hits, jobs.size() - 6u);
  // Exclusivity bound: a pool only creates when its free list is empty, so
  // per entry at most `gangs` workspaces can ever exist (that is the peak
  // concurrency), and nothing may still be checked out after the drain.
  EXPECT_EQ(e.workspaces.in_flight, 0u);
  EXPECT_LE(e.workspaces.created, 6u * static_cast<unsigned>(ex.gangs()));
  EXPECT_EQ(e.workspaces.created + e.workspaces.reused, s.submitted);
  // Per-gang accounting: every completed request is attributed to exactly
  // one gang, busy time accumulates, and pool utilization is a fraction.
  ASSERT_EQ(e.gangs.size(), static_cast<std::size_t>(ex.gangs()));
  for (const GangStats& g : e.gangs) EXPECT_GE(g.busy_seconds, 0.0);
  EXPECT_EQ(gang_tasks(s), s.completed);
  EXPECT_GT(e.uptime_seconds, 0.0);
  EXPECT_GE(utilization(e), 0.0);
  EXPECT_LE(utilization(e), 1.0);
}

// ---------------------------------------------------------------------------
// Per-gang busy-time counters: every request is attributed to the gang that
// ran it, busy time accumulates measurably, and a request that fails at
// plan build counts as failed without losing its gang attribution.
// ---------------------------------------------------------------------------

TEST(GangPool, GangBusyCountersTrackSubmittedTasks) {
  Scheduler ex(fifo_pool(2));
  constexpr std::uint64_t kTasks = 8;
  const Options o = opts(Method::kTranspose, Tiling::kNone, 8);
  std::vector<std::unique_ptr<Grid1D<double>>> grids;
  std::vector<Fut> futs;
  for (std::uint64_t i = 0; i < kTasks; ++i) {
    grids.push_back(std::make_unique<Grid1D<double>>(4096, 1));
    fill_noise(*grids.back(), static_cast<index>(i));
    futs.push_back(ex.submit(*grids.back(), kSpec1d3p, o));
  }
  // nx = 251 violates every compiled width's DLT rule: the plan build on
  // the gang throws ConfigError.
  Grid1D<double> bad(251, 1);
  fill_noise(bad, 99);
  futs.push_back(
      ex.submit(bad, kSpec1d3p, opts(Method::kDlt, Tiling::kNone, 2)));
  for (std::uint64_t i = 0; i < kTasks; ++i)
    EXPECT_NO_THROW(futs[static_cast<std::size_t>(i)].get());
  EXPECT_THROW(futs.back().get(), ConfigError);
  ex.wait_idle();

  const SchedulerStats s = ex.stats();
  EXPECT_EQ(s.submitted, kTasks + 1);
  EXPECT_EQ(s.completed, kTasks);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.latency_of(ServiceClass::kBatch).count(), kTasks);
  ASSERT_EQ(s.executor.gangs.size(), 2u);
  double busy = 0.0;
  for (const GangStats& g : s.executor.gangs) busy += g.busy_seconds;
  EXPECT_EQ(gang_tasks(s), kTasks + 1);  // the failure still took a gang
  EXPECT_GT(busy, 0.0);
  EXPECT_GT(s.executor.uptime_seconds, 0.0);
  EXPECT_GT(utilization(s.executor), 0.0);
  EXPECT_LE(utilization(s.executor), 1.0);
}

// ---------------------------------------------------------------------------
// Plan-cache accounting is deterministic: insertion happens exactly once
// under the cache lock, so M same-key submissions = 1 miss + M-1 hits.
// ---------------------------------------------------------------------------

TEST(GangPool, PlanCacheAccounting) {
  Scheduler ex(fifo_pool(2));
  const Shape shape = shape1d(256);
  const Options o = opts(Method::kTranspose, Tiling::kNone, 3);

  constexpr int kSame = 12;
  std::vector<std::unique_ptr<Grid1D<double>>> grids;
  std::vector<Fut> futs;
  for (int i = 0; i < kSame; ++i) {
    grids.push_back(std::make_unique<Grid1D<double>>(make_grid<Grid1D<double>>(shape)));
    fill_noise(*grids.back(), i);
    futs.push_back(ex.submit(*grids.back(), kSpec1d3p, o));
  }
  for (auto& f : futs) f.get();
  PlanCacheStats s = ex.stats().executor.plan_cache;
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kSame - 1));
  EXPECT_EQ(s.entries, 1u);

  // A different configuration is a new entry, not a hit.
  Grid1D<double> other = make_grid<Grid1D<double>>(shape);
  fill_noise(other, 99);
  ex.submit(other, kSpec1d3p, opts(Method::kReorg, Tiling::kNone, 3)).get();
  s = ex.stats().executor.plan_cache;
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
}

// ---------------------------------------------------------------------------
// The cache is bounded: a service whose requests vary per-call fields
// (steps here) must not grow memory without bound. Idle entries are
// evicted and rebuilt on next use; entries held by in-flight requests are
// pinned.
// ---------------------------------------------------------------------------

TEST(GangPool, PlanCacheBoundsIdleEntries) {
  PlanCache cache(8);  // tiny bound
  const Shape shape = shape1d(256);
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  Options o = opts(Method::kTranspose, Tiling::kNone, 1);

  // Hold one entry like an in-flight request would: eviction must skip it.
  auto held = cache.get(shape, spec, o);
  const Plan* held_plan = &held->plan();

  for (index steps = 2; steps < 60; ++steps) {
    o.steps = steps;  // a new key every call — the unbounded-growth shape
    cache.get(shape, spec, o);
  }
  const PlanCacheStats s = cache.stats();
  EXPECT_GT(s.evictions, 0u);
  // Bound: never more than max_entries, the pinned entry included.
  EXPECT_LE(s.entries, 8u);
  // The held entry survived (whether or not its map slot was evicted).
  EXPECT_EQ(&held->plan(), held_plan);
  Grid1D<double> g = make_grid<Grid1D<double>>(shape);
  fill_noise(g, 7);
  EXPECT_NO_THROW(held->plan().execute(g));
}

// ---------------------------------------------------------------------------
// Failures propagate as ConfigError through the future; the gangs keep
// serving afterwards.
// ---------------------------------------------------------------------------

TEST(GangPool, FutureExceptionPropagatesConfigError) {
  Scheduler ex(fifo_pool(2));

  // nx = 251 violates every compiled width's DLT rule (odd, W >= 2).
  Grid1D<double> bad(251, 1);
  fill_noise(bad, 1);
  auto f1 = ex.submit(bad, kSpec1d3p,
                      opts(Method::kDlt, Tiling::kNone, 2));
  EXPECT_THROW(f1.get(), ConfigError);

  // A multi-tile x block below the tessellation floor 2*r*bt = 6.
  Grid1D<double> bad2(512, 1);
  fill_noise(bad2, 2);
  Options o = opts(Method::kTransposeUJ, Tiling::kTessellate, 4);
  o.bx = 4;
  o.bt = 3;
  auto f2 = ex.submit(bad2, kSpec1d3p, o);
  EXPECT_THROW(f2.get(), ConfigError);

  // A deterministically-invalid key stays loud on every later submit.
  auto f3 = ex.submit(bad, kSpec1d3p,
                      opts(Method::kDlt, Tiling::kNone, 2));
  EXPECT_THROW(f3.get(), ConfigError);

  // Invalid gang hints are rejected exactly like the serial path, not
  // silently sanitized to the gang cap.
  Grid1D<double> bad3(512, 1);
  fill_noise(bad3, 4);
  Options neg = opts(Method::kTranspose, Tiling::kNone, 2);
  neg.max_threads = -1;
  auto f4 = ex.submit(bad3, kSpec1d3p, neg);
  EXPECT_THROW(f4.get(), ConfigError);

  // The workers survived: a valid request still completes.
  Grid1D<double> good(512, 1);
  fill_noise(good, 3);
  EXPECT_NO_THROW(
      ex.submit(good, kSpec1d3p, opts(Method::kTranspose, Tiling::kNone, 2))
          .get());
  const SchedulerStats s = ex.stats();
  EXPECT_EQ(s.failed, 4u);
  EXPECT_EQ(s.completed, 1u);
}

// ---------------------------------------------------------------------------
// Gang hints: an explicit thread request is clamped to the gang size, so
// one request can never fork a machine-wide team.
// ---------------------------------------------------------------------------

TEST(GangPool, GangCapClampsThreads) {
  Scheduler ex(fifo_pool(2, 2));

  // An executed tiled request whose team resolves from the runtime default
  // (clamped to the gang): under the TSan CI job OMP_NUM_THREADS=1 keeps
  // this single-threaded — libgomp must not spawn there (see ci.yml) —
  // while native runs exercise a real gang team.
  Grid2D<double> g = make_grid<Grid2D<double>>(shape2d(256, 16));
  fill_noise(g, 5);
  Options o = opts(Method::kAutoVec, Tiling::kTessellate, 2);
  ex.submit(g, kSpec2d5p, o).get();

  // The clamp itself, checked at resolve time with steps = 0: execute
  // returns before any parallel region, so asserting "8 requested threads
  // resolve to the gang cap of 2" forks no OpenMP team under any runner.
  Grid2D<double> g2 = make_grid<Grid2D<double>>(shape2d(256, 16));
  fill_noise(g2, 6);
  Options wide = opts(Method::kAutoVec, Tiling::kTessellate, 0);
  wide.threads = 8;  // wants the whole machine
  ex.submit(g2, kSpec2d5p, wide).get();

  // Probe the cache under the scheduler's own normalization: same key, and
  // the resolved team must be the gang cap, not 8.
  const Options probe = normalized<Grid2D<double>>(wide, ex.threads_per_gang());
  auto entry = ex.plan_cache().get(shape2d(256, 16), kSpec2d5p, probe);
  EXPECT_EQ(entry->plan().config().threads, 2);
  EXPECT_LE(entry->plan().config().threads, ex.threads_per_gang());
  EXPECT_GE(ex.stats().executor.plan_cache.hits, 1u);  // the probe hit
}

// ---------------------------------------------------------------------------
// Destruction drains: every submitted future is satisfied, never abandoned.
// ---------------------------------------------------------------------------

TEST(GangPool, DestructorDrainsQueue) {
  constexpr int kJobs = 16;
  std::vector<std::unique_ptr<Grid1D<double>>> grids;
  std::vector<Fut> futs;
  {
    Scheduler ex(fifo_pool(2));
    for (int i = 0; i < kJobs; ++i) {
      grids.push_back(std::make_unique<Grid1D<double>>(512, 1));
      fill_noise(*grids.back(), i);
      futs.push_back(ex.submit(*grids.back(), kSpec1d3p,
                               opts(Method::kTranspose, Tiling::kNone, 4)));
    }
  }  // destructor runs the whole queue before joining
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_NO_THROW(f.get());
  }
}

// wait_idle is the whole-batch barrier: every future is ready and every
// counter final when it returns.
TEST(GangPool, WaitIdleDrains) {
  Scheduler ex(fifo_pool(2));
  std::vector<std::unique_ptr<Grid1D<double>>> grids;
  std::vector<Fut> futs;
  for (int i = 0; i < 8; ++i) {
    grids.push_back(std::make_unique<Grid1D<double>>(512, 1));
    fill_noise(*grids.back(), i);
    futs.push_back(ex.submit(*grids.back(), kSpec1d3p,
                             opts(Method::kTranspose, Tiling::kNone, 3)));
  }
  ex.wait_idle();
  const SchedulerStats s = ex.stats();
  EXPECT_EQ(s.completed + s.failed, s.submitted);
  EXPECT_EQ(s.executor.workspaces.in_flight, 0u);
  for (auto& f : futs)
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
}

// ---------------------------------------------------------------------------
// One ledger, one wait: racing submitters followed by a SINGLE wait_idle()
// leave a snapshot that passes every idle invariant — no second quiesce
// step, round after round.
// ---------------------------------------------------------------------------

TEST(GangPool, IdleInvariantsHoldAfterOneWait) {
  Scheduler sched({.executor = {.gangs = 2, .threads_per_gang = 1}});
  MetricsRegistry reg;
  reg.attach(&sched);
  constexpr int kRounds = 50, kSubmitters = 3, kPerThread = 3;
  const Options o = opts(Method::kTranspose, Tiling::kNone, 2);
  std::vector<std::unique_ptr<Grid1D<double>>> grids;
  for (int i = 0; i < kSubmitters * kPerThread; ++i)
    grids.push_back(std::make_unique<Grid1D<double>>(256, 1));

  for (int round = 0; round < kRounds; ++round) {
    std::vector<Fut> futs(static_cast<std::size_t>(kSubmitters * kPerThread));
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t)
      submitters.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const int k = t * kPerThread + i;
          Grid1D<double>& g = *grids[static_cast<std::size_t>(k)];
          fill_noise(g, round * 17 + k);
          futs[static_cast<std::size_t>(k)] = sched.submit(
              g, kSpec1d3p, o,
              i % 2 ? ServiceClass::kBatch : ServiceClass::kInteractive);
        }
      });
    for (auto& t : submitters) t.join();

    sched.wait_idle();  // the one and only quiesce step
    const MetricsSnapshot m = reg.snapshot();
    for (const std::string& v : metrics_check_invariants(m, /*idle=*/true))
      ADD_FAILURE() << "round " << round << ": " << v;
    EXPECT_EQ(m.scheduler.submitted,
              static_cast<std::uint64_t>((round + 1) * kSubmitters *
                                         kPerThread));
    for (auto& f : futs) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
          << "round " << round << ": wait_idle returned before a future";
      EXPECT_NO_THROW(f.get());
    }
  }
}

}  // namespace
}  // namespace tsv
