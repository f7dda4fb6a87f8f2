#pragma once
// Deadline-aware serving scheduler: tail-latency control on top of the
// batched Executor (core/executor.hpp).
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
// The Executor gives throughput: G gangs pop a FIFO queue, so one long
// batch job ahead of a small interactive request costs the interactive
// request the batch job's full service time. The Scheduler gives latency
// SLOs — it owns admission and ORDER, and hands the executor only as much
// work as the gangs can run right now (at most `gangs` requests in flight),
// so the executor's FIFO never reorders what the policy decided:
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
//     the test suite) while keeping every other mechanism identical.
//   * per-tenant quotas — at most max_inflight_per_tenant requests of one
//     tenant run concurrently; a tenant with a deep backlog keeps its
//     excess queued while other tenants' work overtakes it.
//   * single-flight coalescing — concurrent submissions with identical
//     (stencil, shape, options, grid-content digest) become ONE executor
//     request: the leader computes, followers' grids receive a byte copy of
//     the leader's result, every waiter's future completes. The coalescing
//     window is the leader's time in the queue — by the time it is
//     dispatched its input is being consumed, so a later identical
//     submission starts a fresh group.
//
// Completion latency (admission -> future ready) is recorded per class in
// log-scaled histograms; SchedulerStats carries them plus the admission
// counters and the wrapped ExecutorStats, so one snapshot answers both
// "is the service meeting its SLO" (p99, shed rate, deadline misses) and
// "is the machine keeping up" (gang utilization, cache hit rate).
//
// Lifetime: the destructor resumes a paused scheduler, dispatches
// everything still queued, and joins only after every admitted request has
// completed (or failed) — no future is ever abandoned.

#include <array>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "tsv/core/executor.hpp"
#include "tsv/core/fault.hpp"

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
  double dispatch_s = 0.0;  ///< handed to the executor (queueing ends)
  double sweep_s = 0.0;     ///< execution began on a gang
  double complete_s = 0.0;  ///< outcome recorded (future fulfilled next)
};

/// Dispatch-order policy. kDeadline is the scheduler's reason to exist;
/// kFifo preserves admission order (the control arm for A/B latency runs —
/// identical admission, coalescing, quotas and accounting, no reordering).
enum class SchedPolicy { kDeadline, kFifo };

struct SchedulerConfig {
  ExecutorConfig executor;       ///< the wrapped worker pool
  std::size_t queue_capacity = 1024;  ///< queued groups before shedding
  int max_inflight_per_tenant = 0;    ///< 0 = unlimited
  SchedPolicy policy = SchedPolicy::kDeadline;
  bool coalesce = true;          ///< single-flight identical submissions
  /// Transparent re-executions per dispatched group on a TRANSIENT failure
  /// (TransientError — which every injected fault point throws, kernel
  /// sweep included — or std::bad_alloc; see is_transient_error). Every
  /// fault point fires before its step mutates anything and the group's
  /// input is snapshotted before the first attempt, so a retry re-runs the
  /// same cached plan and is bit-identical to a fault-free run.
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
  std::size_t queued = 0;           ///< gauge: coalesce groups waiting
  std::size_t inflight = 0;         ///< gauge: groups handed to the executor
  std::size_t peak_tenant_inflight = 0;  ///< max concurrent in-flight of one tenant
  /// Completion latency (admission -> future ready), indexed by
  /// ServiceClass; successful completions only.
  std::array<LatencyHistogram, kServiceClasses> latency;
  /// The most recent trace spans, oldest first (empty unless
  /// SchedulerConfig::trace_capacity opted in).
  std::vector<TraceSpan> traces;
  ExecutorStats executor;  ///< the wrapped pool's own accounting

  const LatencyHistogram& latency_of(ServiceClass c) const {
    return latency[static_cast<std::size_t>(c)];
  }
};

class Scheduler {
 public:
  using GridRef = Executor::GridRef;
  using Clock = std::chrono::steady_clock;

  /// One serving request: the executor's work unit plus the serving
  /// metadata the scheduler dispatches on.
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
    /// TimeoutError — at dispatch if it never started, between time steps
    /// if it did. Queueing time counts against the budget.
    double timeout_ms = 0.0;
    /// Cooperative cancellation handle (default: inert). cancel() fails the
    /// request with CancelledError at the next dispatch/step poll. A
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
  /// (rejected/shed), ConfigError (invalid configuration, surfaced at
  /// execution exactly like Executor::submit). Never throws directly.
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

  /// Stops handing work to the executor (admission stays open). Queued
  /// requests dispatch again on resume(). An operator's drain valve, and
  /// the test suite's determinism lever: pause, build a queue state,
  /// resume, observe the dispatch order.
  void pause();
  void resume();

  /// Blocks until nothing is queued or in flight.
  void wait_idle();

  SchedulerStats stats() const;

  /// The wrapped executor (introspection; submitting to it directly
  /// bypasses every serving policy).
  Executor& executor() { return ex_; }

 private:
  struct Member;  // one submission's completion endpoint
  struct Group;   // one queue entry: a leader plus coalesced followers

  void dispatch_locked(std::unique_lock<std::mutex>& lock);
  void run_group(const std::shared_ptr<Group>& group);
  void on_group_done(const std::shared_ptr<Group>& group,
                     std::exception_ptr error);
  void flush_failed_dispatches();

  SchedulerConfig cfg_;
  Executor ex_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;  // queued == 0 && inflight == 0
  std::deque<std::shared_ptr<Group>> queue_;
  /// Coalesce index over QUEUED groups: (plan key, content digest) -> group.
  std::map<std::pair<PlanKey, std::uint64_t>, std::shared_ptr<Group>> open_;
  std::map<std::string, int> tenant_inflight_;
  /// Groups whose executor handoff itself threw (dispatch_locked catches
  /// it): accounting is undone under mu_, the promises are fulfilled here
  /// OUTSIDE mu_ — a waiter woken by set_exception may immediately call
  /// stats() and must not self-deadlock.
  std::vector<std::pair<std::shared_ptr<Group>, std::exception_ptr>>
      failed_dispatch_;
  std::size_t inflight_ = 0;
  bool paused_ = false;
  bool stopping_ = false;

  std::uint64_t seq_ = 0;           // admission order (EDF tiebreak)
  std::uint64_t dispatch_seq_ = 0;  // dispatch order (Result::dispatch_seq)
  SchedulerStats stats_;            // counters + histograms (executor field
                                    // filled per stats() call)

  /// Trace ring (guarded by mu_): fixed capacity, oldest overwritten.
  /// trace_pos_ is the next overwrite slot once the ring is full.
  const Clock::time_point epoch_ = Clock::now();
  std::vector<TraceSpan> trace_ring_;
  std::size_t trace_pos_ = 0;
  void push_trace_locked(const TraceSpan& ts);
};

}  // namespace tsv
