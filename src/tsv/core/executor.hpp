#pragma once
// Batched, asynchronous execution: a fixed worker pool serving many stencil
// requests concurrently.
//
//   tsv::Executor ex({.gangs = 4, .threads_per_gang = 2});
//   std::future<void> done =
//       ex.submit(grid, tsv::StencilSpec{.kind = tsv::StencilKind::k2d5p},
//                 {.method = tsv::Method::kTranspose, .steps = 100});
//   ...
//   done.get();   // rethrows tsv::ConfigError for invalid configurations
//
// Model: the machine is partitioned into GANGS. Each gang is one worker
// thread that pops requests off a shared queue; a request's plan may fork
// an OpenMP team of up to threads_per_gang inside that worker (the
// Options::max_threads cap is applied at submit), so a large tiled grid
// claims its gang's full team while many small (untiled, single-threaded)
// grids run one per gang, concurrently. Throughput therefore scales with
// independent requests instead of serializing every request behind one
// machine-wide OpenMP team.
//
// Shared state along the request path and who guards it:
//   * plan construction  — deduplicated + single-flighted by the executor's
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
// serially through Plan::execute: the executor changes scheduling, never
// kernels or arithmetic (tests/test_executor.cpp pins this).
//
// Lifetime: the destructor drains the queue — every submitted request runs
// to completion (or to its exception) before the workers join, so no
// future is ever abandoned.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <variant>
#include <vector>

#include "tsv/common/timer.hpp"
#include "tsv/core/plan_cache.hpp"

namespace tsv {

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

/// Per-gang busy-time accounting: how many tasks this gang ran and how much
/// wall time it spent inside them. busy / uptime is the gang's utilization;
/// a skewed tasks distribution across gangs exposes queue imbalance.
struct GangStats {
  std::uint64_t tasks = 0;
  double busy_seconds = 0.0;
};

struct ExecutorStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< finished successfully
  std::uint64_t failed = 0;     ///< finished by raising into the future
  std::size_t queue_depth = 0;  ///< gauge: tasks waiting for a gang
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

class Executor {
 public:
  /// Non-owning reference to a caller grid of any rank/dtype.
  using GridRef =
      std::variant<Grid1D<double>*, Grid2D<double>*, Grid3D<double>*,
                   Grid1D<float>*, Grid2D<float>*, Grid3D<float>*>;

  /// One unit of work: advance `grid` by `options.steps` steps of
  /// `stencil`. `options.dtype` is overridden from the grid's element type
  /// at submit (the grid is the source of truth), and
  /// `options.max_threads` is clamped to the gang size.
  struct Request {
    GridRef grid;
    StencilSpec stencil;
    Options options;
    /// Wall-clock budget in ms measured from submit (0 = none). An expired
    /// request fails with TimeoutError — at dispatch if it never started,
    /// between time steps if it did (the plan slices steps=1 and polls).
    double timeout_ms = 0.0;
    /// Cooperative cancellation handle (default: inert). cancel() makes the
    /// request fail with CancelledError at the next dispatch/step poll.
    CancelToken cancel;
  };

  explicit Executor(ExecutorConfig cfg = {});
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  ~Executor();

  /// Enqueues @p req and returns immediately. The future becomes ready when
  /// the request finished; plan-time validation also happens on the worker,
  /// so invalid configurations surface as a ConfigError from future.get(),
  /// never as a throw from submit.
  std::future<void> submit(Request req);

  /// Convenience: submit one grid with a stencil spec / named kind.
  template <typename G>
  std::future<void> submit(G& g, const StencilSpec& spec,
                           const Options& o = {}) {
    return submit(Request{GridRef{&g}, spec, o});
  }
  template <typename G>
  std::future<void> submit(G& g, StencilKind kind, const Options& o = {}) {
    return submit(Request{GridRef{&g}, StencilSpec{.kind = kind}, o});
  }

  /// Enqueues an arbitrary closure to run on a gang — the sharded plan's
  /// wave driver (core/plan.hpp) fans its per-shard fill/exchange/sweep
  /// tasks out through this. The task runs with the gang's OpenMP pin like
  /// any request and counts in submitted/completed/failed and the per-gang
  /// stats; it bypasses the plan cache (the closure brings its own plan).
  std::future<void> submit_task(std::function<void()> fn);

  /// Blocks until every submitted request has finished. (Per-request
  /// completion is the future; this is the whole-batch barrier.)
  void wait_idle();

  ExecutorStats stats() const;

  /// The executor-owned plan cache (introspection; shared by every worker).
  PlanCache& plan_cache() { return cache_; }

  int gangs() const { return static_cast<int>(workers_.size()); }
  int threads_per_gang() const { return threads_per_gang_; }

  /// Tasks enqueued but not yet picked up by a gang. The Scheduler
  /// (core/scheduler.hpp) keeps this at most `gangs()` by construction —
  /// its admission queue is where requests wait, so dispatch order stays a
  /// policy decision instead of executor FIFO order.
  std::size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

 private:
  void worker_loop(int gang);
  std::future<void> enqueue(std::packaged_task<void()> task);

  PlanCache cache_;
  int threads_per_gang_ = 1;
  Timer uptime_;  ///< utilization denominator (stats().uptime_seconds)

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // queue became non-empty / stopping
  std::condition_variable idle_cv_;   // queue drained and no active request
  std::deque<std::packaged_task<void()>> queue_;
  std::size_t active_ = 0;
  bool stop_ = false;

  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<GangStats> gang_stats_;  // guarded by mu_; sized at construction

  std::vector<std::thread> workers_;  // last member: joins before the rest
};

namespace detail {

/// The one execution path every request funnels through (Executor::submit
/// and the Scheduler's group runner): cache lookup, workspace checkout,
/// plan execute under @p ctl. Faults propagate unchanged; every fault point
/// fires before anything is mutated, so the caller may re-run the same plan
/// on the same input (the Scheduler's retry_budget). Defined in
/// executor.cpp.
void execute_request(PlanCache& cache, const Shape& shape,
                     const StencilSpec& spec, const Options& o,
                     Executor::GridRef grid, const ExecControl* ctl);

}  // namespace detail

}  // namespace tsv
