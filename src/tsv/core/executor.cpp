#include "tsv/core/executor.hpp"

#include <omp.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "tsv/common/cpu.hpp"

namespace tsv {

namespace detail {

void execute_request(PlanCache& cache, const Shape& shape,
                     const StencilSpec& spec, const Options& o,
                     Executor::GridRef grid, const ExecControl* ctl) {
  std::shared_ptr<PlanCache::Entry> entry = cache.get(shape, spec, o);
  WorkspacePool::Lease ws = entry->workspaces().checkout();
  std::visit([&](auto* g) { entry->plan().execute(*g, *ws, ctl); }, grid);
}

}  // namespace detail

Executor::Executor(ExecutorConfig cfg) {
  threads_per_gang_ = std::max(1, cfg.threads_per_gang);
  // Pin the process-wide default-team capture to THIS thread's environment
  // before any ICV-pinned worker exists: if the process's first make_plan
  // happened on a worker, the tiled-plan default would silently become the
  // gang size for every plan built outside the executor too.
  detail::runtime_default_threads();
  int gangs = cfg.gangs;
  if (gangs <= 0) {
    const int cores = static_cast<int>(cpu_info().logical_cores);
    gangs = std::max(1, cores / threads_per_gang_);
  }
  gang_stats_.resize(static_cast<std::size_t>(gangs));
  workers_.reserve(static_cast<std::size_t>(gangs));
  for (int i = 0; i < gangs; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::future<void> Executor::submit(Request req) {
  // Normalize on the submitting thread (cheap, deterministic): the grid is
  // the source of truth for the dtype, and the gang size caps the team.
  Options o = req.options;
  std::visit(
      [&o](auto* g) {
        using G = std::remove_pointer_t<decltype(g)>;
        o.dtype = dtype_of<typename detail::grid_value_t<G>>();
      },
      req.grid);
  // 0 means "unset" and becomes the gang cap; a positive cap is clamped to
  // the gang. Negative values pass through UNCHANGED so resolve_options
  // rejects them on the worker — the executor must surface the same
  // ConfigError the serial path throws, not sanitize bad input.
  if (o.max_threads == 0)
    o.max_threads = threads_per_gang_;
  else if (o.max_threads > 0)
    o.max_threads = std::min(o.max_threads, threads_per_gang_);

  // The timeout budget starts at submit (queueing time counts against it),
  // so the deadline is pinned here and rides into the task by value.
  ExecControl ctl;
  if (req.timeout_ms > 0.0)
    ctl.deadline = ExecControl::Clock::now() +
                   std::chrono::duration_cast<ExecControl::Clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           req.timeout_ms));
  if (req.cancel.valid())
    ctl.cancelled = [tok = req.cancel] { return tok.cancelled(); };

  std::packaged_task<void()> task(
      [this, grid = req.grid, spec = std::move(req.stencil), o,
       ctl = std::move(ctl)]() {
        try {
          // Everything that can throw (validation, tuning, execution, the
          // injected dispatch fault, cancel/timeout delivery) lives inside
          // the packaged_task, so it raises into the future — a throw can
          // never strand it.
          fault_point(FaultSite::kExecutorDispatch);
          ctl.check();
          const Shape shape =
              std::visit([](auto* g) { return shape_of(*g); }, grid);
          detail::execute_request(cache_, shape, spec, o, grid, &ctl);
          std::lock_guard<std::mutex> lock(mu_);
          ++completed_;
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++failed_;
          }
          throw;  // into the future
        }
      });
  return enqueue(std::move(task));
}

std::future<void> Executor::submit_task(std::function<void()> fn) {
  std::packaged_task<void()> task([this, fn = std::move(fn)]() {
    try {
      fn();
      std::lock_guard<std::mutex> lock(mu_);
      ++completed_;
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++failed_;
      }
      throw;  // into the future
    }
  });
  return enqueue(std::move(task));
}

std::future<void> Executor::enqueue(std::packaged_task<void()> task) {
  std::future<void> fut = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Push BEFORE counting: if push_back throws (allocation growing the
    // deque), the count must not have recorded a task that never queued —
    // submitted_ would exceed completed_ + failed_ forever and the caller
    // gets the exception with no future outstanding (the dying task's
    // promise breaks, it does not strand).
    queue_.push_back(std::move(task));
    ++submitted_;
  }
  work_cv_.notify_one();
  return fut;
}

void Executor::worker_loop(int gang) {
  // This worker is one GANG: its default OpenMP team is the gang size, so
  // anything that forks a region here (kParallel first touch, a tiled
  // plan) uses at most the gang's share of the machine. The nthreads ICV
  // is per-thread, so gangs do not interfere with each other or with the
  // caller's threads — but a tiled plan overwrites this thread's ICV with
  // its own resolved team (TypedPlan::execute), so the pin is re-applied
  // per task, not once at startup: one 2-thread request must not shrink
  // every later request's first-touch parallelism on this gang.
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
      // Counted at dequeue, not after the run: the task body makes its
      // future ready (and bumps completed_/failed_) before control returns
      // here, so a post-run count could lag a caller that already drained
      // the future. busy_seconds is a duration and can only land post-run;
      // wait_idle() is the quiescent point for it.
      gang_stats_[static_cast<std::size_t>(gang)].tasks += 1;
    }
    omp_set_num_threads(threads_per_gang_);
    Timer busy;
    task();  // exceptions land in the future, never escape here
    const double busy_seconds = busy.seconds();
    {
      std::lock_guard<std::mutex> lock(mu_);
      GangStats& g = gang_stats_[static_cast<std::size_t>(gang)];
      g.busy_seconds += busy_seconds;
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void Executor::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

ExecutorStats Executor::stats() const {
  ExecutorStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.submitted = submitted_;
    s.completed = completed_;
    s.failed = failed_;
    s.queue_depth = queue_.size();
    s.gangs = gang_stats_;
  }
  s.uptime_seconds = uptime_.seconds();
  s.plan_cache = cache_.stats();
  s.workspaces = cache_.workspace_stats();
  return s;
}

}  // namespace tsv
