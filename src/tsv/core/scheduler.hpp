#pragma once
// Deadline-aware serving scheduler: one dispatch loop that owns a pool of
// worker gangs, one admission queue and one ledger.
//
//   tsv::Scheduler sched({.executor = {.gangs = 2},
//                         .queue_capacity = 256,
//                         .max_inflight_per_tenant = 1});
//   std::future<tsv::Scheduler::Result> done = sched.submit({
//       .grid = &grid,
//       .stencil = {.kind = tsv::StencilKind::k2d5p},
//       .options = {.steps = 100},
//       .cls = tsv::ServiceClass::kInteractive,
//       .deadline_ms = 50,
//       .tenant = "tenant-a"});
//   tsv::Scheduler::Result r = done.get();  // throws OverloadError if shed,
//                                           // ConfigError if invalid
//
// Model: the machine is partitioned into GANGS. Each gang is one worker
// thread; a request's plan may fork an OpenMP team of up to
// threads_per_gang inside it (Options::max_threads is clamped at submit),
// so a large tiled grid claims its gang's full team while many small
// untiled grids run one per gang, concurrently. Every idle gang takes the
// policy-best eligible group straight from the admission queue, so the
// dispatch order is decided at the moment a gang is free — there is no
// second queue behind the policy:
//
//   * bounded admission queue with load-shedding — a submission against a
//     full queue first sheds queued work that is already past its deadline
//     (lowest priority class first: dead batch work before dead interactive
//     work), and is rejected with OverloadError through its future when
//     there is nothing sheddable. Overload degrades loudly and cheaply,
//     never by unbounded queue growth.
//   * priority/deadline-aware dispatch — interactive requests bypass every
//     queued batch request; within a class, earliest absolute deadline
//     first (no deadline sorts last), admission order breaking ties.
//     kFifo policy disables the reordering (A/B control in bench/fig12 and
//     plain batch throughput in bench/fig10) while keeping every other
//     mechanism identical.
//   * per-tenant quotas — at most max_inflight_per_tenant requests of one
//     tenant run concurrently; a tenant with a deep backlog keeps its
//     excess queued while other tenants' work overtakes it.
//   * single-flight coalescing — concurrent submissions with identical
//     (stencil, shape, options, grid contents) become ONE execution: the
//     leader computes, followers' grids receive a byte copy of the leader's
//     result, every waiter's future completes. The coalescing window is the
//     leader's time in the queue — by the time a gang takes it its input is
//     being consumed, so a later identical submission starts a fresh group.
//     Open groups are indexed by plan key alone, and the content digest (an
//     O(grid) read) is paid only on a key match: the newcomer hashes its
//     own grid and each same-key group not yet hashed, outside the lock,
//     while those groups are pinned (neither dispatched nor shed). Traffic
//     with distinct keys never hashes (SchedulerStats::digests stays 0).
//
// Shared state along the request path and who guards it:
//   * plan construction  — deduplicated + single-flighted by the scheduler's
//     PlanCache (core/plan_cache.hpp); tuning trials additionally serialize
//     on the tuner's process-wide trial lock (core/tuner.hpp).
//   * scratch buffers    — every in-flight request checks a private
//     Workspace out of its cached plan's WorkspacePool; the plan itself is
//     immutable and shared.
//   * the grid           — owned by the caller. A grid must not be passed
//     to a second submit (or touched) while a request on it is in flight;
//     the future is the handoff.
//
// Results are bit-identical to executing the same (grid, spec, options)
// serially through Plan::execute: the scheduler changes ordering, never
// kernels or arithmetic (tests/test_executor.cpp and test_scheduler.cpp
// pin this).
//
// Completion latency (admission -> future ready) is recorded per class in
// log-scaled histograms; SchedulerStats carries them plus the admission
// counters and the pool's ExecutorStats (gangs, plan cache, workspaces), so
// one snapshot answers both "is the service meeting its SLO" (p99, shed
// rate, deadline misses) and "is the machine keeping up" (gang
// utilization, cache hit rate).
//
// Lifetime: the destructor resumes a paused scheduler, lets the gangs run
// everything still queued, and joins only after every admitted request has
// completed (or failed) — no future is ever abandoned.

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tsv/common/timer.hpp"
#include "tsv/core/fault.hpp"
#include "tsv/core/plan_cache.hpp"

namespace tsv {

/// Priority class of a request. Interactive work bypasses batch work in the
/// dispatch order; batch work is shed before interactive work under
/// overload. The enum order IS the priority order (lower = more urgent).
enum class ServiceClass { kInteractive = 0, kBatch = 1 };
inline constexpr int kServiceClasses = 2;

const char* service_class_name(ServiceClass c);

/// Raised through the future of a submission the scheduler could not serve:
/// rejected at admission (queue full, nothing sheddable) or shed from the
/// queue to make room for newer work. The request never executed. Part of
/// the TsvError taxonomy (core/fault.hpp); not transient — resubmitting the
/// same request into the same overload cannot help.
class OverloadError : public std::runtime_error, public TsvError {
 public:
  using std::runtime_error::runtime_error;
};

/// Log-scaled latency histogram: 1 µs base bucket, powers of two up to
/// ~2400 s. Fixed storage, no allocation on record(); quantiles are read by
/// linear interpolation inside the landing bucket, so p50/p95/p99 are exact
/// to within one bucket's resolution (a factor of 2 — plenty for SLO gates
/// that fire on order-of-magnitude regressions).
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 42;
  static constexpr double kBaseSeconds = 1e-6;

  void record(double seconds);

  std::uint64_t count() const { return n_; }
  double sum_seconds() const { return sum_; }
  double mean_seconds() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  /// Latency (seconds) at quantile @p q in [0, 1]; 0 when empty.
  double quantile(double q) const;

  /// Raw bucket count for @p b in [0, kBuckets): the Prometheus exposition
  /// (core/metrics.hpp) emits cumulative `le` buckets from these.
  std::uint64_t bucket_count(int b) const {
    return counts_[static_cast<std::size_t>(b)];
  }
  /// Upper bound (seconds) of bucket @p b — bucket b spans
  /// [2^b µs, 2^(b+1) µs), with bucket 0 reaching down to 0.
  static double bucket_upper_seconds(int b);

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
};

/// One request's lifecycle timeline, recorded when SchedulerConfig::
/// trace_capacity is non-zero. Timestamps are seconds since the scheduler's
/// construction (steady clock), so span arithmetic needs no epoch plumbing:
/// queue time = dispatch_s - submit_s, gang wait = sweep_s - dispatch_s,
/// service time = complete_s - sweep_s. Spans cover requests that reached a
/// gang (completed or failed there); rejected and shed submissions never
/// dispatch and are visible in the counters instead.
struct TraceSpan {
  std::uint64_t seq = 0;           ///< group admission order
  std::uint64_t dispatch_seq = 0;  ///< group dispatch order
  ServiceClass cls = ServiceClass::kBatch;
  bool coalesced = false;  ///< this member rode another request's execution
  /// Outcome: 'C' completed, 'F' failed, 'X' cancelled, 'T' timed out.
  char outcome = 'C';
  double submit_s = 0.0;    ///< admitted into the queue
  double dispatch_s = 0.0;  ///< taken by a gang (queueing ends)
  double sweep_s = 0.0;     ///< execution began on that gang
  double complete_s = 0.0;  ///< outcome recorded (future fulfilled next)
};

/// Shape of the gang pool (SchedulerConfig::executor).
struct ExecutorConfig {
  /// Worker gangs (one worker thread each). 0 = one gang per
  /// threads_per_gang-sized slice of the machine's logical cores (at least
  /// one).
  int gangs = 0;
  /// OpenMP team cap per request: submit clamps every request's
  /// Options::max_threads to this, so one gang can never fork a
  /// machine-wide team. 1 (the default) runs every request single-threaded
  /// — pure request-level parallelism.
  int threads_per_gang = 1;
};

/// Per-gang busy-time accounting: how many groups this gang ran and how
/// much wall time it spent inside them. busy / uptime is the gang's
/// utilization; a skewed tasks distribution across gangs exposes imbalance.
struct GangStats {
  std::uint64_t tasks = 0;
  double busy_seconds = 0.0;
};

/// The gang pool's own accounting (SchedulerStats::executor).
struct ExecutorStats {
  PlanCacheStats plan_cache;
  WorkspacePool::Stats workspaces;  ///< aggregated over all cached plans
  std::vector<GangStats> gangs;     ///< one entry per gang, stable order
  double uptime_seconds = 0.0;      ///< wall time since construction
};

/// Whole-pool utilization in [0, 1]: the busy fraction of every gang's
/// uptime, summed. 1.0 means every gang computed the entire time.
inline double utilization(const ExecutorStats& s) {
  if (s.gangs.empty() || s.uptime_seconds <= 0.0) return 0.0;
  double busy = 0.0;
  for (const GangStats& g : s.gangs) busy += g.busy_seconds;
  return busy / (s.uptime_seconds * static_cast<double>(s.gangs.size()));
}

/// Dispatch-order policy. kDeadline is the scheduler's reason to exist;
/// kFifo preserves admission order (the control arm for A/B latency runs —
/// identical admission, coalescing, quotas and accounting, no reordering).
enum class SchedPolicy { kDeadline, kFifo };

struct SchedulerConfig {
  ExecutorConfig executor;       ///< the gang pool
  std::size_t queue_capacity = 1024;  ///< queued groups before shedding
  int max_inflight_per_tenant = 0;    ///< 0 = unlimited
  SchedPolicy policy = SchedPolicy::kDeadline;
  bool coalesce = true;          ///< single-flight identical submissions
  /// Transparent re-executions per dispatched group on a TRANSIENT failure
  /// (TransientError — which every injected fault point throws, kernel
  /// sweep included — or std::bad_alloc; see is_transient_error). Every
  /// fault point fires before its step mutates anything, and a plan creates
  /// all its workspace slots before its first write to the grid
  /// (TypedPlan::prepare), so a transient always leaves the input intact:
  /// a retry re-runs the same cached plan on the same grid, with no copy
  /// taken, and is bit-identical to a fault-free run.
  /// Coalesced followers ride their leader's retries: one budget per group,
  /// one shared outcome. 0 disables retry (transients surface immediately).
  int retry_budget = 0;
  /// First retry's backoff in ms; doubles per retry up to
  /// retry_backoff_max_ms, scaled by a deterministic jitter in [0.5, 1.0]
  /// derived from the group's admission seq (no global rng, replayable).
  double retry_backoff_ms = 1.0;
  double retry_backoff_max_ms = 50.0;  ///< cap on the exponential backoff
  /// Per-request trace spans: 0 (default) records nothing; N keeps the most
  /// recent N spans in a fixed ring (no allocation after construction,
  /// oldest overwritten) surfaced through SchedulerStats::traces.
  std::size_t trace_capacity = 0;
};

/// Cumulative serving counters plus the per-class latency distributions.
/// submitted = admitted + rejected; admitted requests end up in exactly one
/// of completed / failed / shed. deadline_missed counts COMPLETED requests
/// that finished after their deadline (shed work is counted as shed, not
/// missed). coalesced counts followers fanned out from a leader's result.
struct SchedulerStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;   ///< refused at admission (OverloadError)
  std::uint64_t shed = 0;       ///< dropped from the queue (OverloadError)
  std::uint64_t coalesced = 0;  ///< served by another request's execution
  /// Grid content digests computed for coalescing: only submissions whose
  /// plan key matched a queued group hash (each grid at most once), so
  /// coalesced <= digests <= submitted.
  std::uint64_t digests = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;     ///< raised into the future (e.g. ConfigError)
  std::uint64_t deadline_missed = 0;
  /// Transient-failure re-executions performed (one group retry serves the
  /// whole coalesce group but counts once).
  std::uint64_t retries = 0;
  /// Groups whose transient error surfaced to the callers — the retry
  /// budget (possibly 0) was spent without a success. A healthy service
  /// under injected transient faults keeps this at 0.
  std::uint64_t retry_exhausted = 0;
  std::uint64_t cancelled = 0;  ///< failed with CancelledError (subset of failed)
  std::uint64_t timed_out = 0;  ///< failed with TimeoutError (subset of failed)
  /// Request groups that ran under a live cancel token or timeout:
  /// TypedPlan::execute polls the control after every time block of its
  /// one driver call, keeping the plan's temporal blocking. Plain requests
  /// never count here.
  std::uint64_t polled_executes = 0;
  std::size_t queued = 0;           ///< gauge: coalesce groups waiting
  std::size_t inflight = 0;         ///< gauge: groups running on a gang
  std::size_t peak_tenant_inflight = 0;  ///< max concurrent in-flight of one tenant
  /// Completion latency (admission -> future ready), indexed by
  /// ServiceClass; successful completions only.
  std::array<LatencyHistogram, kServiceClasses> latency;
  /// The most recent trace spans, oldest first (empty unless
  /// SchedulerConfig::trace_capacity opted in).
  std::vector<TraceSpan> traces;
  ExecutorStats executor;  ///< the gang pool's own accounting

  const LatencyHistogram& latency_of(ServiceClass c) const {
    return latency[static_cast<std::size_t>(c)];
  }
};

class Scheduler {
 public:
  using GridRef = tsv::GridRef;
  using Clock = std::chrono::steady_clock;

  /// One serving request: the work unit plus the serving metadata the
  /// dispatch loop orders on. `options.dtype` is overridden from the grid's
  /// element type (the grid is the source of truth) and
  /// `options.max_threads` is clamped to the gang size.
  struct Request {
    GridRef grid;
    StencilSpec stencil;
    Options options;
    ServiceClass cls = ServiceClass::kBatch;
    /// Relative completion deadline in milliseconds from submission;
    /// <= 0 means no deadline (sorts after every dated request in EDF and
    /// is never shed as "past deadline").
    double deadline_ms = 0.0;
    /// Quota bucket. Followers coalesced onto another tenant's leader ride
    /// that leader's quota — the work is charged to whoever computes it.
    std::string tenant;
    /// Hard wall-clock budget in ms from submission (0 = none). Where
    /// deadline_ms is the soft SLO (tracked in deadline_missed, never
    /// enforced), timeout_ms is ENFORCED: an expired request fails with
    /// TimeoutError — at dispatch if it never started, after a time block
    /// if it did (the grid then holds a whole-block prefix of the run).
    /// Queueing time counts against the budget.
    double timeout_ms = 0.0;
    /// Cooperative cancellation handle (default: inert). cancel() fails the
    /// request with CancelledError at the next dispatch/block poll. A
    /// coalesced group aborts mid-run only when EVERY member cancelled —
    /// one waiter's cancel must not take the shared result from the rest.
    CancelToken cancel;
  };

  /// What a completed submission observed (future<Result>::get()).
  struct Result {
    /// Position in the dispatch order (0-based). Coalesced followers share
    /// their leader's seq — the group was one dispatch.
    std::uint64_t dispatch_seq = 0;
    double latency_seconds = 0.0;  ///< admission -> completion
    bool deadline_missed = false;
    bool coalesced = false;        ///< served by a leader's execution
  };

  explicit Scheduler(SchedulerConfig cfg = {});
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  /// Admits @p req and returns immediately. The future resolves to the
  /// request's Result when it completed, or throws: OverloadError
  /// (rejected/shed), ConfigError (invalid configuration — plan-time
  /// validation runs on the gang, so it surfaces here exactly as the
  /// serial path would throw it). Never throws directly.
  std::future<Result> submit(Request req);

  /// Convenience: one grid, explicit serving metadata.
  template <typename G>
  std::future<Result> submit(G& g, const StencilSpec& spec, const Options& o,
                             ServiceClass cls = ServiceClass::kBatch,
                             double deadline_ms = 0.0,
                             std::string tenant = {}) {
    return submit(Request{GridRef{&g}, spec, o, cls, deadline_ms,
                          std::move(tenant)});
  }

  /// Stops the gangs from taking queued work (admission stays open).
  /// Queued requests dispatch again on resume(). An operator's drain valve,
  /// and the test suite's determinism lever: pause, build a queue state,
  /// resume, observe the dispatch order. The order is fixed with one gang;
  /// with several, each gang picks when it wakes, so which groups are still
  /// in flight at a pick depends on timing unless the caller holds them.
  void pause();
  void resume();

  /// Blocks until nothing is queued or in flight. Every admitted future is
  /// ready and every counter final when it returns.
  void wait_idle();

  SchedulerStats stats() const;

  /// The scheduler-owned plan cache (introspection; shared by every gang).
  PlanCache& plan_cache() { return cache_; }

  int gangs() const { return static_cast<int>(workers_.size()); }
  int threads_per_gang() const { return threads_per_gang_; }

 private:
  struct Member;  // one submission's completion endpoint
  struct Group;   // one queue entry: a leader plus coalesced followers

  friend struct SchedulerTestAccess;  // tests: pinned_hook_

  std::future<Result> admit(std::shared_ptr<Group> g, Member m);
  std::shared_ptr<Group> match_locked(std::unique_lock<std::mutex>& lock,
                                      Group& g, GridRef grid);
  void close_locked(const Group& g);
  std::shared_ptr<Group> take_locked();
  void worker_loop(int gang);
  std::exception_ptr run_group(const std::shared_ptr<Group>& g);
  std::vector<Result> finish_locked(Group& g, const std::exception_ptr& error);

  SchedulerConfig cfg_;
  PlanCache cache_;
  int threads_per_gang_ = 1;
  Timer uptime_;  ///< utilization denominator (ExecutorStats::uptime_seconds)

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // work queued / resumed / stopping
  std::condition_variable idle_cv_;  // queued == 0 && inflight == 0
  std::condition_variable digest_cv_;  // a pinned group's digest landed
  std::deque<std::shared_ptr<Group>> queue_;
  /// Coalesce index over QUEUED request groups, keyed by plan key alone.
  std::multimap<PlanKey, std::shared_ptr<Group>> open_;
  /// Runs on a submitting thread while it holds pins, before it hashes
  /// (tests use it to observe a pinned group); empty otherwise.
  std::function<void()> pinned_hook_;
  std::map<std::string, int> tenant_inflight_;
  std::size_t inflight_ = 0;
  bool paused_ = false;
  bool stopping_ = false;

  std::uint64_t seq_ = 0;           // admission order (EDF tiebreak)
  std::uint64_t dispatch_seq_ = 0;  // dispatch order (Result::dispatch_seq)
  SchedulerStats stats_;            // counters + histograms (executor field
                                    // filled per stats() call)
  std::vector<GangStats> gang_stats_;  // sized at construction

  /// Trace ring (guarded by mu_): fixed capacity, oldest overwritten.
  /// trace_pos_ is the next overwrite slot once the ring is full.
  const Clock::time_point epoch_ = Clock::now();
  std::vector<TraceSpan> trace_ring_;
  std::size_t trace_pos_ = 0;
  void push_trace_locked(const TraceSpan& ts);

  std::vector<std::thread> workers_;  // last member: joins before the rest
};

/// Alias for callers that still spell `tsv::Executor::GridRef`.
using Executor = Scheduler;

namespace detail {

/// The one execution path every request funnels through: cache lookup,
/// workspace checkout, plan execute under @p ctl. Faults propagate
/// unchanged; every fault point fires before anything is mutated, so the
/// caller may re-run the same plan on the same input (retry_budget).
void execute_request(PlanCache& cache, const Shape& shape,
                     const StencilSpec& spec, const Options& o, GridRef grid,
                     const ExecControl* ctl);

}  // namespace detail

}  // namespace tsv
