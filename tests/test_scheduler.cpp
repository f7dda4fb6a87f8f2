// Semantics suite for the serving scheduler (core/scheduler.hpp).
//
// The contract under test: the scheduler changes ADMISSION and ORDER, never
// results. Every completed request is bit-identical to the serial plan;
// policy decisions (EDF-within-class, shedding order, tenant quotas,
// coalescing) are asserted deterministically by building queue states under
// pause() and reading back Result::dispatch_seq after resume() — no
// sleep-based ordering guesses, so the suite holds under ASan/UBSan/TSan
// slowdowns.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "tsv/tsv.hpp"
#include "test_support.hpp"

namespace tsv {

/// Test seam (friend of Scheduler): runs a callback on a submitting thread
/// while it holds pins on the groups it is about to hash.
struct SchedulerTestAccess {
  static void set_pinned_hook(Scheduler& s, std::function<void()> hook) {
    s.pinned_hook_ = std::move(hook);
  }
};

namespace {

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

/// One request's worth of state: an independent 1D grid with salt-keyed
/// contents (distinct salts = distinct content digests = never coalesced;
/// equal salts = coalescing candidates).
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

// ---------------------------------------------------------------------------
// Histogram arithmetic stands alone: counts, mean, interpolated quantiles.
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, QuantilesAndMean) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.mean_seconds(), 0.0);

  for (int i = 0; i < 900; ++i) h.record(3e-6);   // bucket [2 us, 4 us)
  for (int i = 0; i < 100; ++i) h.record(100e-6); // bucket [64 us, 128 us)
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean_seconds(), (900 * 3e-6 + 100 * 100e-6) / 1000.0, 1e-12);
  // p50 lands in the 3 us bucket, p99 in the 100 us bucket; interpolation
  // stays inside the landing bucket's bounds.
  EXPECT_GE(h.quantile(0.50), 2e-6);
  EXPECT_LE(h.quantile(0.50), 4e-6);
  EXPECT_GE(h.quantile(0.99), 64e-6);
  EXPECT_LE(h.quantile(0.99), 128e-6);
  EXPECT_LE(h.quantile(0.50), h.quantile(0.95));
  EXPECT_LE(h.quantile(0.95), h.quantile(0.99));
  // Degenerate quantiles clamp instead of reading out of range.
  EXPECT_GE(h.quantile(0.0), 0.0);
  EXPECT_LE(h.quantile(1.0), 128e-6);
}

// ---------------------------------------------------------------------------
// The baseline contract: requests complete, results are bit-identical to
// the serial plan, and every counter adds up.
// ---------------------------------------------------------------------------

TEST(Scheduler, CompletesBitIdenticalWithHonestCounters) {
  Scheduler sched({.executor = {.gangs = 2, .threads_per_gang = 1}});
  constexpr int kN = 8;
  std::vector<Req> reqs;
  for (int i = 0; i < kN; ++i) {
    reqs.emplace_back(i);
    reqs[static_cast<std::size_t>(i)].fut = sched.submit(
        *reqs[static_cast<std::size_t>(i)].grid,
        StencilSpec{.kind = StencilKind::k1d3p}, kRun,
        i % 2 ? ServiceClass::kBatch : ServiceClass::kInteractive);
  }
  for (auto& r : reqs) EXPECT_NO_THROW(r.fut.get());
  sched.wait_idle();

  for (int i = 0; i < kN; ++i) {
    const Grid1D<double> expected =
        serial_expected(i, kRun, sched.threads_per_gang());
    EXPECT_EQ(max_abs_diff(expected, *reqs[static_cast<std::size_t>(i)].grid),
              0.0)
        << "request " << i << " diverged from serial Plan::execute";
  }

  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.admitted, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.deadline_missed, 0u);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.inflight, 0u);
  // Per-class latency: every completion recorded exactly once, in its class.
  EXPECT_EQ(s.latency_of(ServiceClass::kInteractive).count(),
            static_cast<std::uint64_t>(kN / 2));
  EXPECT_EQ(s.latency_of(ServiceClass::kBatch).count(),
            static_cast<std::uint64_t>(kN / 2));
  EXPECT_GT(s.latency_of(ServiceClass::kBatch).mean_seconds(), 0.0);
  // The gangs ran exactly one task per group.
  EXPECT_EQ(gang_tasks(s), static_cast<std::uint64_t>(kN));
}

// ---------------------------------------------------------------------------
// Dispatch order. Build the whole queue under pause(), resume, and read the
// policy's decisions back from Result::dispatch_seq — one gang serializes
// dispatch, so the order is exact, not statistical.
// ---------------------------------------------------------------------------

TEST(Scheduler, EdfOrdersInteractiveFirstThenDeadline) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1}});
  sched.pause();
  Req a(1), b(2), c(3), d(4);
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  a.fut = sched.submit(*a.grid, spec, kRun, ServiceClass::kBatch, 1000.0);
  b.fut = sched.submit(*b.grid, spec, kRun, ServiceClass::kBatch, 100.0);
  c.fut = sched.submit(*c.grid, spec, kRun, ServiceClass::kInteractive);
  d.fut = sched.submit(*d.grid, spec, kRun, ServiceClass::kInteractive, 50.0);
  sched.resume();

  // Interactive bypasses batch; within a class EDF, no deadline sorts last.
  EXPECT_EQ(d.fut.get().dispatch_seq, 0u);
  EXPECT_EQ(c.fut.get().dispatch_seq, 1u);
  EXPECT_EQ(b.fut.get().dispatch_seq, 2u);
  EXPECT_EQ(a.fut.get().dispatch_seq, 3u);
}

TEST(Scheduler, FifoControlPreservesAdmissionOrder) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1},
                   .policy = SchedPolicy::kFifo});
  sched.pause();
  Req a(1), b(2), c(3), d(4);
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  a.fut = sched.submit(*a.grid, spec, kRun, ServiceClass::kBatch, 1000.0);
  b.fut = sched.submit(*b.grid, spec, kRun, ServiceClass::kBatch, 100.0);
  c.fut = sched.submit(*c.grid, spec, kRun, ServiceClass::kInteractive);
  d.fut = sched.submit(*d.grid, spec, kRun, ServiceClass::kInteractive, 50.0);
  sched.resume();

  EXPECT_EQ(a.fut.get().dispatch_seq, 0u);
  EXPECT_EQ(b.fut.get().dispatch_seq, 1u);
  EXPECT_EQ(c.fut.get().dispatch_seq, 2u);
  EXPECT_EQ(d.fut.get().dispatch_seq, 3u);
}

// ---------------------------------------------------------------------------
// Tenant quotas: a tenant at its in-flight cap is overtaken by other
// tenants' queued work; its backlog resumes as completions free the quota.
// ---------------------------------------------------------------------------

TEST(Scheduler, TenantQuotaLetsOtherTenantsOvertake) {
  Scheduler sched({.executor = {.gangs = 2, .threads_per_gang = 1},
                   .max_inflight_per_tenant = 1});
  // a1 is held in flight by the test: its tiled plan autotunes (kFull
  // always runs trials), and the trials wait on the process-wide trial lock
  // held here. While a1 is in flight, tenant a is at its quota whichever
  // gang wakes first, so the second pick is b1 under any timing.
  std::unique_lock<std::mutex> hold_a1(tune_trial_mutex());
  sched.pause();
  Req a1(1), a2(2), a3(3), b1(4);
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  Options tuned = opts(Method::kAutoVec, Tiling::kTessellate, 4);
  tuned.tune = Tune::kFull;
  a1.fut = sched.submit(*a1.grid, spec, tuned, ServiceClass::kBatch, 0, "a");
  a2.fut = sched.submit(*a2.grid, spec, kRun, ServiceClass::kBatch, 0, "a");
  a3.fut = sched.submit(*a3.grid, spec, kRun, ServiceClass::kBatch, 0, "a");
  b1.fut = sched.submit(*b1.grid, spec, kRun, ServiceClass::kBatch, 0, "b");
  sched.resume();

  // a1 first (admission order), then b1 overtakes a2/a3 — while a1 is
  // still held.
  EXPECT_EQ(b1.fut.get().dispatch_seq, 1u);
  EXPECT_EQ(a1.fut.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_EQ(a2.fut.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  hold_a1.unlock();
  EXPECT_EQ(a1.fut.get().dispatch_seq, 0u);
  const Scheduler::Result ra2 = a2.fut.get();
  const Scheduler::Result ra3 = a3.fut.get();
  EXPECT_EQ(ra2.dispatch_seq, 2u);
  EXPECT_EQ(ra3.dispatch_seq, 3u);
  sched.wait_idle();
  EXPECT_EQ(sched.stats().peak_tenant_inflight, 1u);
}

// ---------------------------------------------------------------------------
// Coalescing: identical (spec, shape, options, contents) submissions against
// a queued leader become ONE gang task; every waiter's grid gets the
// leader's bits.
// ---------------------------------------------------------------------------

TEST(Scheduler, CoalescesIdenticalSubmissionsToOneExecution) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1}});
  sched.pause();
  constexpr int kWaiters = 4;  // one leader + 3 followers, same salt
  std::vector<Req> reqs;
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  for (int i = 0; i < kWaiters; ++i) {
    reqs.emplace_back(7);
    reqs[static_cast<std::size_t>(i)].fut =
        sched.submit(*reqs[static_cast<std::size_t>(i)].grid, spec, kRun,
                     ServiceClass::kBatch);
  }
  sched.resume();

  std::uint64_t leader_seq = 0;
  for (int i = 0; i < kWaiters; ++i) {
    const Scheduler::Result r = reqs[static_cast<std::size_t>(i)].fut.get();
    if (i == 0) {
      EXPECT_FALSE(r.coalesced);
      leader_seq = r.dispatch_seq;
    } else {
      EXPECT_TRUE(r.coalesced);
      EXPECT_EQ(r.dispatch_seq, leader_seq);  // one group, one dispatch
    }
  }
  const Grid1D<double> expected =
      serial_expected(7, kRun, sched.threads_per_gang());
  for (auto& r : reqs)
    EXPECT_EQ(max_abs_diff(expected, *r.grid), 0.0)
        << "a coalesced waiter is not bit-identical to the leader";

  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.admitted, static_cast<std::uint64_t>(kWaiters));
  EXPECT_EQ(s.coalesced, static_cast<std::uint64_t>(kWaiters - 1));
  // The leader was hashed once, by the first follower; each follower hashed
  // its own grid.
  EXPECT_EQ(s.digests, static_cast<std::uint64_t>(kWaiters));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kWaiters));
  // Exactly ONE task reached a gang, ONE plan-cache probe ran.
  EXPECT_EQ(gang_tasks(s), 1u);
  EXPECT_EQ(s.executor.plan_cache.misses, 1u);
  EXPECT_EQ(s.executor.plan_cache.hits, 0u);

  // A dispatched group's coalescing window is CLOSED: the same contents
  // submitted after the drain start a fresh group and a fresh execution
  // (the input grids now hold advanced state, digests differ anyway; this
  // pins the open_-map erase on dispatch).
  Req late(7);
  late.fut = sched.submit(*late.grid, spec, kRun, ServiceClass::kBatch);
  EXPECT_FALSE(late.fut.get().coalesced);
  EXPECT_EQ(sched.stats().coalesced, static_cast<std::uint64_t>(kWaiters - 1));
  // Nothing was queued under its key, so it was admitted without a digest.
  EXPECT_EQ(sched.stats().digests, static_cast<std::uint64_t>(kWaiters));
}

// The content digest is paid only on a plan-key match: traffic whose keys
// all differ never reads a grid for coalescing, even with every group
// queued at once.
TEST(Scheduler, DistinctKeysAreAdmittedWithoutDigests) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1}});
  sched.pause();
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  constexpr int kReqs = 6;
  std::vector<Req> reqs;
  const auto steps = [](int i) {
    return opts(Method::kTranspose, Tiling::kNone, 1 + i);
  };
  for (int i = 0; i < kReqs; ++i) {
    reqs.emplace_back(3);  // equal contents; only the step count differs
    reqs.back().fut = sched.submit(*reqs.back().grid, spec, steps(i));
  }
  EXPECT_EQ(sched.stats().digests, 0u);
  sched.resume();
  for (int i = 0; i < kReqs; ++i) {
    Req& r = reqs[static_cast<std::size_t>(i)];
    EXPECT_FALSE(r.fut.get().coalesced);
    EXPECT_EQ(max_abs_diff(serial_expected(3, steps(i),
                                           sched.threads_per_gang()),
                           *r.grid),
              0.0);
  }
  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.digests, 0u);
  EXPECT_EQ(s.coalesced, 0u);
  EXPECT_EQ(gang_tasks(s), static_cast<std::uint64_t>(kReqs));
}

// Same plan key, different contents: the newcomer hashes both grids, the
// digests differ, and each request runs on its own.
TEST(Scheduler, SameKeyDifferentContentsHashBothAndNeverCoalesce) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1}});
  sched.pause();
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  Req a(1), b(2);
  a.fut = sched.submit(*a.grid, spec, kRun);
  EXPECT_EQ(sched.stats().digests, 0u);
  b.fut = sched.submit(*b.grid, spec, kRun);
  EXPECT_EQ(sched.stats().digests, 2u);
  sched.resume();
  EXPECT_FALSE(a.fut.get().coalesced);
  EXPECT_FALSE(b.fut.get().coalesced);
  const int tpg = sched.threads_per_gang();
  EXPECT_EQ(max_abs_diff(serial_expected(1, kRun, tpg), *a.grid), 0.0);
  EXPECT_EQ(max_abs_diff(serial_expected(2, kRun, tpg), *b.grid), 0.0);
  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.coalesced, 0u);
  EXPECT_EQ(gang_tasks(s), 2u);
}

// While a submitter hashes a queued group's grid outside the lock, that
// group is pinned: a free gang does not take it (the gang would write the
// grid being read) and a full queue does not shed it (its caller would get
// the grid back mid-read). The hook holds the submitter at that point.
TEST(Scheduler, PinnedGroupIsNeitherDispatchedNorShed) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1},
                   .queue_capacity = 1});
  sched.pause();
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  Req a(1), b(2), c(3);
  a.fut = sched.submit(*a.grid, spec, kRun, ServiceClass::kBatch, 1e-6);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));  // a overdue

  std::promise<void> pinned, release;
  std::shared_future<void> released = release.get_future().share();
  SchedulerTestAccess::set_pinned_hook(sched, [&] {
    pinned.set_value();
    released.wait();
  });
  std::thread submitter([&] { b.fut = sched.submit(*b.grid, spec, kRun); });
  pinned.get_future().wait();

  // A free gang and a queued group, but the group is pinned.
  sched.resume();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  SchedulerStats s = sched.stats();
  EXPECT_EQ(gang_tasks(s), 0u);
  EXPECT_EQ(s.queued, 1u);

  // The queue is full and its only group is overdue, yet pinned: the
  // newcomer (another key, so no hashing) is rejected instead.
  c.fut = sched.submit(*c.grid, spec,
                       opts(Method::kTranspose, Tiling::kNone, 3));
  EXPECT_THROW(c.fut.get(), OverloadError);
  s = sched.stats();
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(s.rejected, 1u);

  // Released, the submitter stores both digests, unpins a, finds no match
  // and — still under the lock — sheds the overdue a for its own slot.
  release.set_value();
  submitter.join();
  EXPECT_THROW(a.fut.get(), OverloadError);
  EXPECT_FALSE(b.fut.get().coalesced);
  EXPECT_EQ(max_abs_diff(serial_expected(2, kRun, sched.threads_per_gang()),
                         *b.grid),
            0.0);
  sched.wait_idle();
  s = sched.stats();
  EXPECT_EQ(s.digests, 2u);
  EXPECT_EQ(s.coalesced, 0u);
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(gang_tasks(s), 1u);
}

// ---------------------------------------------------------------------------
// Overload: shedding order (lowest class first among past-deadline queued
// groups), rejection when nothing is sheddable, OverloadError through every
// affected future — all decided at submit, asserted while paused.
// ---------------------------------------------------------------------------

TEST(Scheduler, ShedsPastDeadlineLowestClassFirstThenRejects) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1},
                   .queue_capacity = 2});
  sched.pause();
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  Req b1(1), i1(2), i2(3), i3(4), b2(5);

  b1.fut = sched.submit(*b1.grid, spec, kRun, ServiceClass::kBatch, 1e-6);
  i1.fut = sched.submit(*i1.grid, spec, kRun, ServiceClass::kInteractive, 1e-6);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));  // both overdue

  // Full queue + sheddable batch work: the batch group goes first even
  // though the interactive one is just as dead.
  i2.fut = sched.submit(*i2.grid, spec, kRun, ServiceClass::kInteractive);
  EXPECT_THROW(b1.fut.get(), OverloadError);

  // Full again; only the overdue INTERACTIVE group is sheddable now.
  i3.fut = sched.submit(*i3.grid, spec, kRun, ServiceClass::kInteractive);
  EXPECT_THROW(i1.fut.get(), OverloadError);

  // Full, and nothing queued is past its deadline: the NEWCOMER is refused.
  b2.fut = sched.submit(*b2.grid, spec, kRun, ServiceClass::kBatch);
  EXPECT_THROW(b2.fut.get(), OverloadError);

  SchedulerStats s = sched.stats();
  EXPECT_EQ(s.submitted, 5u);
  EXPECT_EQ(s.admitted, 4u);
  EXPECT_EQ(s.shed, 2u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.queued, 2u);

  sched.resume();
  EXPECT_NO_THROW(i2.fut.get());
  EXPECT_NO_THROW(i3.fut.get());
  s = sched.stats();
  EXPECT_EQ(s.completed, 2u);
  // Shed work never reached a gang.
  EXPECT_EQ(gang_tasks(s), 2u);
}

// ---------------------------------------------------------------------------
// Deadline misses count COMPLETED-late requests — distinct from shedding.
// ---------------------------------------------------------------------------

TEST(Scheduler, DeadlineMissAccountsCompletedLateWork) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1}});
  sched.pause();
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  Req late(1), ok(2);
  late.fut = sched.submit(*late.grid, spec, kRun, ServiceClass::kInteractive,
                          0.5);  // 0.5 ms deadline...
  ok.fut = sched.submit(*ok.grid, spec, kRun, ServiceClass::kInteractive);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // ...long gone
  sched.resume();

  const Scheduler::Result r1 = late.fut.get();
  const Scheduler::Result r2 = ok.fut.get();
  EXPECT_TRUE(r1.deadline_missed);
  EXPECT_GE(r1.latency_seconds, 0.0005);
  EXPECT_FALSE(r2.deadline_missed);  // no deadline, can't miss
  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.deadline_missed, 1u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.shed, 0u);
}

// ---------------------------------------------------------------------------
// A request's plan polls between time blocks only when its group's
// ExecControl can fire: every live member holds a cancel token, or every
// live member has a timeout. Every request keeps the plan's temporal
// blocking (bt > 1), polled or not.
// ---------------------------------------------------------------------------

TEST(Scheduler, OnlyControllableGroupsArePolled) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1}});
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  const Options tiled = opts(Method::kAutoVec, Tiling::kTessellate, 8);
  const Req probe(5);
  ASSERT_GT(make_plan(shape_of(*probe.grid), spec, normalized(tiled, 1))
                .config()
                .bt,
            1);
  const Grid1D<double> expected = serial_expected(5, tiled, 1);
  const auto run = [&](double timeout_ms, CancelToken tok) {
    Req r(5);
    Scheduler::Request req{.grid = r.grid.get(),
                           .stencil = spec,
                           .options = tiled,
                           .timeout_ms = timeout_ms,
                           .cancel = tok};
    sched.submit(std::move(req)).get();
    EXPECT_EQ(max_abs_diff(expected, *r.grid), 0.0);
    return sched.stats().polled_executes;
  };
  EXPECT_EQ(run(0.0, {}), 0u);                   // plain: no hook
  EXPECT_EQ(run(60'000.0, {}), 1u);              // timeout: polled per block
  EXPECT_EQ(run(0.0, CancelToken::make()), 2u);  // token: polled per block

  // A coalesced group polls only if EVERY live member can cancel: a
  // token-holder riding with a plain request cannot abort the shared run.
  sched.pause();
  Req lead(6), follow(6);
  Scheduler::Request with_token{.grid = lead.grid.get(),
                                .stencil = spec,
                                .options = tiled,
                                .cancel = CancelToken::make()};
  lead.fut = sched.submit(std::move(with_token));
  follow.fut = sched.submit(*follow.grid, spec, tiled);
  sched.resume();
  lead.fut.get();
  EXPECT_TRUE(follow.fut.get().coalesced);
  EXPECT_EQ(sched.stats().polled_executes, 2u);
}

// ---------------------------------------------------------------------------
// Failures surface through the future exactly like the serial path's
// throws, and count as failed, not completed.
// ---------------------------------------------------------------------------

TEST(Scheduler, ConfigErrorPropagatesThroughFuture) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1}});
  Req bad(1), good(2);
  Options neg = kRun;
  neg.max_threads = -1;  // rejected at resolve, like the serial path
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  bad.fut = sched.submit(*bad.grid, spec, neg);
  EXPECT_THROW(bad.fut.get(), ConfigError);
  good.fut = sched.submit(*good.grid, spec, kRun);
  EXPECT_NO_THROW(good.fut.get());

  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 1u);
  // Failed completions record no latency sample.
  EXPECT_EQ(s.latency_of(ServiceClass::kBatch).count(), 1u);
}

// ---------------------------------------------------------------------------
// Destruction drains: paused, with a full queue, the destructor resumes,
// runs everything, and satisfies every future before joining.
// ---------------------------------------------------------------------------

TEST(Scheduler, DestructorResumesAndDrains) {
  constexpr int kJobs = 6;
  std::vector<Req> reqs;
  {
    Scheduler sched({.executor = {.gangs = 2, .threads_per_gang = 1}});
    sched.pause();
    const StencilSpec spec{.kind = StencilKind::k1d3p};
    for (int i = 0; i < kJobs; ++i) {
      reqs.emplace_back(i);
      reqs[static_cast<std::size_t>(i)].fut =
          sched.submit(*reqs[static_cast<std::size_t>(i)].grid, spec, kRun);
    }
  }  // ~Scheduler: unpause, dispatch all, wait for completion
  for (int i = 0; i < kJobs; ++i) {
    auto& f = reqs[static_cast<std::size_t>(i)].fut;
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_NO_THROW(f.get());
    const Grid1D<double> expected = serial_expected(i, kRun, 1);
    EXPECT_EQ(max_abs_diff(expected, *reqs[static_cast<std::size_t>(i)].grid),
              0.0);
  }
}

// ---------------------------------------------------------------------------
// Concurrent submitters racing the admission path: counters still add up,
// results stay serial-identical. (The TSan job runs this suite.)
// ---------------------------------------------------------------------------

TEST(Scheduler, ConcurrentSubmittersKeepCountersConsistent) {
  Scheduler sched({.executor = {.gangs = 2, .threads_per_gang = 1}});
  constexpr int kThreads = 4, kPerThread = 6;
  std::vector<Req> reqs;
  for (int i = 0; i < kThreads * kPerThread; ++i) reqs.emplace_back(i);

  std::vector<std::thread> submitters;
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  for (int t = 0; t < kThreads; ++t)
    submitters.emplace_back([&, t] {
      for (int i = t; i < kThreads * kPerThread; i += kThreads)
        reqs[static_cast<std::size_t>(i)].fut = sched.submit(
            *reqs[static_cast<std::size_t>(i)].grid, spec, kRun,
            i % 2 ? ServiceClass::kBatch : ServiceClass::kInteractive,
            /*deadline_ms=*/0.0, i % 3 ? "x" : "y");
    });
  for (auto& t : submitters) t.join();
  for (auto& r : reqs) EXPECT_NO_THROW(r.fut.get());
  sched.wait_idle();

  for (int i = 0; i < kThreads * kPerThread; ++i) {
    const Grid1D<double> expected = serial_expected(i, kRun, 1);
    EXPECT_EQ(max_abs_diff(expected, *reqs[static_cast<std::size_t>(i)].grid),
              0.0);
  }
  const SchedulerStats s = sched.stats();
  const auto n = static_cast<std::uint64_t>(kThreads * kPerThread);
  EXPECT_EQ(s.submitted, n);
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(s.latency_of(ServiceClass::kInteractive).count() +
                s.latency_of(ServiceClass::kBatch).count(),
            n);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.inflight, 0u);
  EXPECT_EQ(s.executor.workspaces.in_flight, 0u);
}

// Concurrent same-key submitters against live gangs: digests, pins and
// coalescing race the dispatch loop. Three contents share one key, so
// submitters hash each other's queued leaders while gangs take them. Every
// request must still match its serial result (exact coalescing), and the
// counters must satisfy coalesced <= digests <= submitted.
TEST(Scheduler, ConcurrentSameKeySubmitsCoalesceExactly) {
  Scheduler sched({.executor = {.gangs = 2, .threads_per_gang = 1}});
  constexpr int kThreads = 4, kPerThread = 12, kContents = 3;
  constexpr index kNx = 4096;
  const Options o = opts(Method::kTranspose, Tiling::kNone, 2);
  std::vector<Req> reqs;
  for (int i = 0; i < kThreads * kPerThread; ++i)
    reqs.emplace_back(i % kContents, kNx);

  std::vector<std::thread> submitters;
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  for (int t = 0; t < kThreads; ++t)
    submitters.emplace_back([&, t] {
      for (int i = t; i < kThreads * kPerThread; i += kThreads)
        reqs[static_cast<std::size_t>(i)].fut =
            sched.submit(*reqs[static_cast<std::size_t>(i)].grid, spec, o);
    });
  for (auto& t : submitters) t.join();
  for (auto& r : reqs) EXPECT_NO_THROW(r.fut.get());
  sched.wait_idle();

  for (int i = 0; i < kThreads * kPerThread; ++i)
    EXPECT_EQ(max_abs_diff(serial_expected(i % kContents, o, 1, kNx),
                           *reqs[static_cast<std::size_t>(i)].grid),
              0.0)
        << "request " << i;
  MetricsSnapshot m;
  m.has_scheduler = true;
  m.scheduler = sched.stats();
  const SchedulerStats& s = m.scheduler;
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_LE(s.coalesced, s.digests);
  EXPECT_LE(s.digests, s.submitted);
  for (const std::string& v : metrics_check_invariants(m, /*idle=*/true))
    ADD_FAILURE() << v;
}

}  // namespace
}  // namespace tsv
