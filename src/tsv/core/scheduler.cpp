#include "tsv/core/scheduler.hpp"

#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <iterator>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>
#include <variant>

#include "tsv/common/cpu.hpp"

namespace tsv {

namespace {

using Clock = Scheduler::Clock;

constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

// Deterministic backoff jitter: a splitmix64 stream seeded from the group's
// admission seq, so a replayed fault schedule replays its backoff schedule
// too (no global rng, no cross-request coupling).
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

// Which taxonomy class a member's failure belongs to, for the
// cancelled/timed_out counters (subsets of failed).
enum class ErrKind { kOther, kCancelled, kTimeout };

ErrKind err_kind(const std::exception_ptr& e) noexcept {
  try {
    std::rethrow_exception(e);
  } catch (const CancelledError&) {
    return ErrKind::kCancelled;
  } catch (const TimeoutError&) {
    return ErrKind::kTimeout;
  } catch (...) {
    return ErrKind::kOther;
  }
}

// ---- grid content digest / fan-out copy -----------------------------------
//
// Coalescing identity must cover the INPUT DATA, not just the configuration:
// two requests with equal (spec, shape, options) but different grid contents
// produce different results and must never share one execution. The digest
// is FNV-1a over every logical cell including the halo (Dirichlet halos are
// inputs too); lead-padding bytes outside the halo are skipped, so two grids
// that are cell-for-cell equal hash equal regardless of allocator noise.
// It is one O(n) read, so it runs only when a submission's plan key matches
// a queued group (Scheduler::match_locked), and never under mu_: every idle
// gang takes its next group under mu_, so a digest computed under the lock
// would stall the whole pool for the length of the read.

std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t bytes) {
  const unsigned char* c = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= c[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
std::uint64_t content_digest(const Grid1D<T>& g) {
  const index h = g.halo();
  return fnv1a(1469598103934665603ull, &g.at(-h),
               static_cast<std::size_t>(g.nx() + 2 * h) * sizeof(T));
}

template <typename T>
std::uint64_t content_digest(const Grid2D<T>& g) {
  const index h = g.halo();
  const std::size_t row_bytes =
      static_cast<std::size_t>(g.nx() + 2 * h) * sizeof(T);
  std::uint64_t d = 1469598103934665603ull;
  for (index y = -h; y < g.ny() + h; ++y) d = fnv1a(d, g.row(y) - h, row_bytes);
  return d;
}

template <typename T>
std::uint64_t content_digest(const Grid3D<T>& g) {
  const index h = g.halo();
  const std::size_t row_bytes =
      static_cast<std::size_t>(g.nx() + 2 * h) * sizeof(T);
  std::uint64_t d = 1469598103934665603ull;
  for (index z = -h; z < g.nz() + h; ++z)
    for (index y = -h; y < g.ny() + h; ++y)
      d = fnv1a(d, g.row(y, z) - h, row_bytes);
  return d;
}

std::uint64_t content_digest(const Scheduler::GridRef& ref) {
  return std::visit([](auto* g) { return content_digest(*g); }, ref);
}

template <typename T>
void copy_content(Grid1D<T>& dst, const Grid1D<T>& src) {
  const index h = dst.halo();
  std::memcpy(&dst.at(-h), &src.at(-h),
              static_cast<std::size_t>(dst.nx() + 2 * h) * sizeof(T));
}

template <typename T>
void copy_content(Grid2D<T>& dst, const Grid2D<T>& src) {
  const index h = dst.halo();
  const std::size_t row_bytes =
      static_cast<std::size_t>(dst.nx() + 2 * h) * sizeof(T);
  for (index y = -h; y < dst.ny() + h; ++y)
    std::memcpy(dst.row(y) - h, src.row(y) - h, row_bytes);
}

template <typename T>
void copy_content(Grid3D<T>& dst, const Grid3D<T>& src) {
  const index h = dst.halo();
  const std::size_t row_bytes =
      static_cast<std::size_t>(dst.nx() + 2 * h) * sizeof(T);
  for (index z = -h; z < dst.nz() + h; ++z)
    for (index y = -h; y < dst.ny() + h; ++y)
      std::memcpy(dst.row(y, z) - h, src.row(y, z) - h, row_bytes);
}

/// Fans a leader's finished grid out to a follower. Same variant
/// alternative by construction: the coalesce key contains rank and dtype,
/// so a mismatch is a scheduler bug, not a user error.
void copy_content(Scheduler::GridRef dst, const Scheduler::GridRef& src) {
  std::visit(
      [](auto* d, auto* s) {
        if constexpr (std::is_same_v<decltype(d), decltype(s)>) {
          copy_content(*d, *s);
        } else {
          require(false, "Scheduler: coalesced grids of different type");
        }
      },
      dst, src);
}

}  // namespace

namespace detail {

void execute_request(PlanCache& cache, const Shape& shape,
                     const StencilSpec& spec, const Options& o, GridRef grid,
                     const ExecControl* ctl) {
  std::shared_ptr<PlanCache::Entry> entry = cache.get(shape, spec, o);
  WorkspacePool::Lease ws = entry->workspaces().checkout();
  entry->plan().execute(grid, *ws, ctl);
}

}  // namespace detail

const char* service_class_name(ServiceClass c) {
  switch (c) {
    case ServiceClass::kInteractive: return "interactive";
    case ServiceClass::kBatch: return "batch";
  }
  return "?";
}

// ---- LatencyHistogram ------------------------------------------------------

void LatencyHistogram::record(double seconds) {
  ++n_;
  sum_ += seconds;
  double v = seconds / kBaseSeconds;
  int b = 0;
  while (b < kBuckets - 1 && v >= 2.0) {
    v *= 0.5;
    ++b;
  }
  ++counts_[static_cast<std::size_t>(b)];
}

double LatencyHistogram::bucket_upper_seconds(int b) {
  return std::ldexp(kBaseSeconds, b + 1);
}

double LatencyHistogram::quantile(double q) const {
  if (n_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n_);
  std::uint64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t c = counts_[static_cast<std::size_t>(b)];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      // Interpolate inside the landing bucket [lo, hi).
      const double lo = b == 0 ? 0.0 : std::ldexp(kBaseSeconds, b);
      const double hi = std::ldexp(kBaseSeconds, b + 1);
      const double frac = std::clamp(
          (target - static_cast<double>(cum)) / static_cast<double>(c), 0.0,
          1.0);
      return lo + frac * (hi - lo);
    }
    cum += c;
  }
  return std::ldexp(kBaseSeconds, kBuckets);  // unreachable
}

// ---- Scheduler -------------------------------------------------------------

/// One submission's completion endpoint: its promise plus everything the
/// completion path needs to account it (class, deadline, admission time).
struct Scheduler::Member {
  std::promise<Result> promise;
  Clock::time_point admitted;
  Clock::time_point deadline = kNoDeadline;       ///< soft SLO (tracked)
  Clock::time_point exec_deadline = kNoDeadline;  ///< hard timeout (enforced)
  ServiceClass cls = ServiceClass::kBatch;
  GridRef grid;
  CancelToken cancel;
  bool follower = false;
};

/// One admission-queue entry: the leader submission plus every follower
/// coalesced onto it. The group's class/deadline are the most urgent of its
/// members, so a follower can PROMOTE a queued batch request into the
/// interactive lane — the result serves both, so it inherits the stricter
/// SLO.
struct Scheduler::Group {
  StencilSpec spec;
  Options options;  ///< normalized: dtype from the grid, gang-capped team
  Shape shape;
  PlanKey key;
  /// Content digest of the leader's grid, computed the first time another
  /// submission's key matches this group (guarded by mu_).
  std::optional<std::uint64_t> digest;
  /// A submitter is hashing this group's grid outside mu_: the group is
  /// neither dispatched nor shed until the digest lands (guarded by mu_).
  bool pinned = false;
  ServiceClass cls = ServiceClass::kBatch;
  Clock::time_point deadline = kNoDeadline;
  std::uint64_t seq = 0;           ///< admission order (tiebreak)
  std::uint64_t dispatch_seq = 0;  ///< set when a gang takes the group
  std::string tenant;              ///< leader's quota bucket
  std::vector<Member> members;     ///< members[0] is the leader

  // Written by run_group on the gang, read by finish_locked and the
  // promise fulfilment on the same thread — no synchronization needed.
  std::vector<std::exception_ptr> member_errors;  ///< per-member outcome
  std::uint64_t retries_used = 0;
  bool retry_exhausted = false;
  bool polled = false;  ///< executed under an active ExecControl

  // Trace timestamps. `dispatched` is written under mu_ (take_locked);
  // `sweep_start` is written by run_group on the gang, like member_errors.
  Clock::time_point dispatched{};
  Clock::time_point sweep_start{};
};

Scheduler::Scheduler(SchedulerConfig cfg) : cfg_(cfg) {
  cfg_.queue_capacity = std::max<std::size_t>(1, cfg_.queue_capacity);
  threads_per_gang_ = std::max(1, cfg_.executor.threads_per_gang);
  trace_ring_.reserve(cfg_.trace_capacity);
  // Pin the process-wide default-team capture to THIS thread's environment
  // before any ICV-pinned gang exists: if the process's first make_plan
  // happened on a gang, the tiled-plan default would silently become the
  // gang size for every plan built outside the scheduler too.
  detail::runtime_default_threads();
  int gangs = cfg_.executor.gangs;
  if (gangs <= 0) {
    const int cores = static_cast<int>(cpu_info().logical_cores);
    gangs = std::max(1, cores / threads_per_gang_);
  }
  gang_stats_.resize(static_cast<std::size_t>(gangs));
  workers_.reserve(static_cast<std::size_t>(gangs));
  for (int i = 0; i < gangs; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    paused_ = false;  // a paused scheduler still drains on destruction
  }
  work_cv_.notify_all();
  // Each gang leaves only once the queue is empty, after fulfilling the
  // futures of its last group — joining them is the drain.
  for (std::thread& w : workers_) w.join();
}

std::future<Scheduler::Result> Scheduler::submit(Request req) {
  const Clock::time_point now = Clock::now();

  // The grid is the source of truth for the dtype, and the gang size caps
  // the team. 0 means "unset" and becomes the gang cap; negative caps pass
  // through UNCHANGED so resolve_options rejects them on the gang with the
  // same ConfigError the serial path throws.
  Options o = req.options;
  std::visit(
      [&o](auto* g) {
        using G = std::remove_pointer_t<decltype(g)>;
        o.dtype = dtype_of<typename G::value_type>();
      },
      req.grid);
  if (o.max_threads == 0)
    o.max_threads = threads_per_gang_;
  else if (o.max_threads > 0)
    o.max_threads = std::min(o.max_threads, threads_per_gang_);

  auto g = std::make_shared<Group>();
  g->shape = std::visit([](auto* p) { return shape_of(*p); }, req.grid);
  g->key = PlanKey::make(g->shape, req.stencil, o);
  g->spec = std::move(req.stencil);
  g->options = o;
  g->tenant = std::move(req.tenant);

  Member m;
  m.admitted = now;
  if (req.deadline_ms > 0.0)
    m.deadline = now + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               req.deadline_ms));
  // The timeout budget starts at submit — queueing counts against it.
  if (req.timeout_ms > 0.0)
    m.exec_deadline = now + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    req.timeout_ms));
  m.cls = req.cls;
  m.grid = req.grid;
  m.cancel = req.cancel;
  return admit(std::move(g), std::move(m));
}

std::future<Scheduler::Result> Scheduler::admit(std::shared_ptr<Group> g,
                                                Member m) {
  const Clock::time_point now = m.admitted;
  std::future<Result> fut = m.promise.get_future();
  std::shared_ptr<Group> victim;       // shed group: promises failed post-unlock
  const char* reject_msg = nullptr;    // set => reject this submission
  {
    std::unique_lock<std::mutex> lock(mu_);
    std::shared_ptr<Group> match;
    if (cfg_.coalesce && !stopping_) match = match_locked(lock, *g, m.grid);
    // Counted together with the admit/reject below, never before a hash
    // drops the lock, so a concurrent stats() always reads
    // admitted + rejected == submitted and digests <= submitted.
    ++stats_.submitted;
    if (g->digest) ++stats_.digests;

    if (stopping_) {
      ++stats_.rejected;
      reject_msg = "tsv::Scheduler: shutting down";
    } else {
      if (match) {
        m.follower = true;
        match->cls = std::min(match->cls, m.cls);
        match->deadline = std::min(match->deadline, m.deadline);
        match->members.push_back(std::move(m));
        ++stats_.admitted;
        ++stats_.coalesced;
        return fut;  // no queue slot consumed: the work already exists
      }

      if (queue_.size() >= cfg_.queue_capacity) {
        // Full: shed queued work that is already past its deadline.
        // Nothing sheddable means the NEWCOMER is rejected: admitted work
        // with a live deadline is never dropped for later arrivals.
        // Victim order: lowest priority class first (batch before
        // interactive), then most overdue, then oldest.
        const auto shed_rank = [](const Group& q) {
          return std::tuple(-static_cast<int>(q.cls), q.deadline, q.seq);
        };
        std::size_t best = queue_.size();
        for (std::size_t i = 0; i < queue_.size(); ++i) {
          const Group& q = *queue_[i];
          // A pinned group's grid is being hashed: its caller must not get
          // the grid back (a shed future) until the read is done.
          if (q.pinned || q.deadline == kNoDeadline || q.deadline > now)
            continue;
          if (best == queue_.size() || shed_rank(q) < shed_rank(*queue_[best]))
            best = i;
        }
        if (best < queue_.size()) {
          victim = queue_[best];
          queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
          close_locked(*victim);
          stats_.shed += victim->members.size();
        } else {
          ++stats_.rejected;
          reject_msg = "tsv::Scheduler: admission queue full";
        }
      }

      if (reject_msg == nullptr) {
        g->cls = m.cls;
        g->deadline = m.deadline;
        g->seq = seq_++;
        g->members.push_back(std::move(m));
        if (cfg_.coalesce) open_.emplace(g->key, g);
        queue_.push_back(std::move(g));
        ++stats_.admitted;
      }
    }
  }
  if (reject_msg == nullptr) work_cv_.notify_one();

  // Promise resolution happens outside the lock: a waiter woken by
  // set_exception may immediately call stats() and must not self-deadlock.
  if (victim)
    for (Member& vm : victim->members)
      vm.promise.set_exception(std::make_exception_ptr(OverloadError(
          "tsv::Scheduler: shed past-deadline request (queue full)")));
  if (reject_msg != nullptr)
    m.promise.set_exception(
        std::make_exception_ptr(OverloadError(reject_msg)));
  return fut;
}

/// The queued group a request with @p g's key and @p grid's content joins,
/// or null when it must open its own group. Called and returns under
/// @p lock (mu_), but drops it while hashing. A request whose key matches
/// no open group is admitted without a digest. On a match it hashes its own
/// grid and every same-key group that has none yet, each at most once,
/// pinning those groups so that no gang writes and no shed frees their
/// grids during the read; then it re-scans. A same-key group pinned by
/// another submitter is waited for, so identical concurrent submissions
/// still meet. Coalescing stays exact: only equal digests join.
std::shared_ptr<Scheduler::Group> Scheduler::match_locked(
    std::unique_lock<std::mutex>& lock, Group& g, GridRef grid) {
  struct Pending {
    std::shared_ptr<Group> group;  // pinned by this call
    GridRef grid;
    std::uint64_t digest = 0;
  };
  for (;;) {
    const auto [lo, hi] = open_.equal_range(g.key);
    if (lo == hi || stopping_) return nullptr;
    // Reserved before any pin, so nothing below can throw with a pin held.
    std::vector<Pending> hash;
    hash.reserve(static_cast<std::size_t>(std::distance(lo, hi)));
    bool wait = false;
    for (auto it = lo; it != hi; ++it) {
      Group& q = *it->second;
      if (q.digest) {
        if (q.digest == g.digest) return it->second;
      } else if (q.pinned) {
        wait = true;
      } else {
        q.pinned = true;
        hash.push_back({it->second, q.members.front().grid});
      }
    }
    if (g.digest && hash.empty()) {
      if (!wait) return nullptr;
      digest_cv_.wait(lock);
      continue;
    }

    const bool self = !g.digest;
    lock.unlock();
    if (!hash.empty() && pinned_hook_) pinned_hook_();
    const std::uint64_t mine = self ? content_digest(grid) : 0;
    for (Pending& p : hash) p.digest = content_digest(p.grid);
    lock.lock();

    if (self) g.digest = mine;
    for (Pending& p : hash) {
      p.group->digest = p.digest;
      p.group->pinned = false;
    }
    stats_.digests += hash.size();  // this grid's counts in admit
    if (!hash.empty()) {
      digest_cv_.notify_all();  // submitters waiting on these pins
      work_cv_.notify_all();    // gangs that skipped them
    }
  }
}

void Scheduler::close_locked(const Group& g) {
  const auto [lo, hi] = open_.equal_range(g.key);
  for (auto it = lo; it != hi; ++it)
    if (it->second.get() == &g) {
      open_.erase(it);
      return;
    }
}

std::shared_ptr<Scheduler::Group> Scheduler::take_locked() {
  if (paused_) return nullptr;
  std::size_t best = queue_.size();
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Group& g = *queue_[i];
    if (g.pinned) continue;  // its grid is being hashed (match_locked)
    if (cfg_.max_inflight_per_tenant > 0) {
      auto it = tenant_inflight_.find(g.tenant);
      if (it != tenant_inflight_.end() &&
          it->second >= cfg_.max_inflight_per_tenant)
        continue;  // tenant at quota: its backlog waits, others overtake
    }
    if (best == queue_.size()) {
      best = i;
      continue;
    }
    const Group& b = *queue_[best];
    const bool wins =
        cfg_.policy == SchedPolicy::kFifo
            ? g.seq < b.seq
            // Interactive before batch; within a class earliest deadline
            // first (no deadline = kNoDeadline sorts last); admission
            // order breaks ties.
            : std::tuple(static_cast<int>(g.cls), g.deadline, g.seq) <
                  std::tuple(static_cast<int>(b.cls), b.deadline, b.seq);
    if (wins) best = i;
  }
  if (best == queue_.size()) return nullptr;  // everything is at quota

  std::shared_ptr<Group> g = queue_[best];
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
  g->dispatch_seq = dispatch_seq_++;
  g->dispatched = Clock::now();
  ++inflight_;
  close_locked(*g);  // closed: input in use
  const int t = ++tenant_inflight_[g->tenant];
  stats_.peak_tenant_inflight =
      std::max(stats_.peak_tenant_inflight, static_cast<std::size_t>(t));
  return g;
}

void Scheduler::worker_loop(int gang) {
  GangStats& gs = gang_stats_[static_cast<std::size_t>(gang)];  // under mu_
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::shared_ptr<Group> g = take_locked();
    if (!g) {
      if (stopping_ && queue_.empty()) break;
      work_cv_.wait(lock);
      continue;
    }
    // Counted at take, not after the run: the futures may be drained by a
    // caller before busy_seconds (a duration, post-run only) lands.
    ++gs.tasks;
    lock.unlock();

    // This worker is one GANG: its default OpenMP team is the gang size, so
    // anything that forks a region here (kParallel first touch, a tiled
    // plan) uses at most the gang's share of the machine. The nthreads ICV
    // is per-thread, so gangs do not interfere with each other or with the
    // caller's threads — but a tiled plan overwrites this thread's ICV with
    // its own resolved team (TypedPlan::execute), so the pin is re-applied
    // per group, not once at startup: one 2-thread request must not shrink
    // every later request's first-touch parallelism on this gang.
    omp_set_num_threads(threads_per_gang_);
    Timer busy;
    const std::exception_ptr error = run_group(g);
    const double busy_seconds = busy.seconds();

    lock.lock();
    gs.busy_seconds += busy_seconds;
    const std::vector<Result> results = finish_locked(*g, error);
    lock.unlock();
    // Outside the lock: a waiter woken by its future may immediately call
    // stats() and must not self-deadlock.
    for (std::size_t i = 0; i < g->members.size(); ++i) {
      if (g->member_errors[i])
        g->members[i].promise.set_exception(g->member_errors[i]);
      else
        g->members[i].promise.set_value(results[i]);
    }
    lock.lock();
    // The group leaves the in-flight set only now, so wait_idle() returns
    // with every future ready and every counter final.
    --inflight_;
    auto it = tenant_inflight_.find(g->tenant);
    if (it != tenant_inflight_.end() && --it->second <= 0)
      tenant_inflight_.erase(it);
    if (queue_.empty() && inflight_ == 0) idle_cv_.notify_all();
  }
  lock.unlock();
  // A gang still waiting on a tenant-blocked queue must see the drain too.
  work_cv_.notify_all();
}

/// Runs one group on the calling gang. The first live member computes
/// through the shared plan cache (one cache probe, one execution per GROUP)
/// under the group's ExecControl; the other live members receive a byte
/// copy of that result — coalesced waiters are bit-identical by
/// construction. Transient failures re-execute the same plan on the same
/// grid under the retry budget: every transient is raised before the plan's
/// first write (see TypedPlan::prepare), so the grid still holds the input.
/// Members already cancelled or timed out at dispatch are pruned up front
/// and fail individually without costing an execution. Returns the group's
/// shared error (null on success).
std::exception_ptr Scheduler::run_group(const std::shared_ptr<Group>& g) {
  g->sweep_start = Clock::now();
  try {
    g->member_errors.assign(g->members.size(), nullptr);
    const Clock::time_point now = g->sweep_start;

    // Prune members that are dead on arrival: a cancelled member fails with
    // CancelledError, an expired one with TimeoutError — and neither blocks
    // the live members' execution. Cancel wins when both apply (an explicit
    // cancel is the caller's word).
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < g->members.size(); ++i) {
      const Member& m = g->members[i];
      if (m.cancel.cancelled()) {
        g->member_errors[i] = std::make_exception_ptr(CancelledError(
            "tsv::Scheduler: request cancelled before dispatch"));
      } else if (m.exec_deadline != kNoDeadline && now >= m.exec_deadline) {
        g->member_errors[i] = std::make_exception_ptr(TimeoutError(
            "tsv::Scheduler: timeout expired before dispatch"));
      } else {
        live.push_back(i);
      }
    }

    if (!live.empty()) {
      // Group-level execution control. The cancel predicate fires only when
      // EVERY live member cancelled (one waiter's cancel must not take the
      // shared result from the rest), so it is installed only when every
      // live member holds a token: otherwise it could never fire, and an
      // installed predicate makes the control active, which has the plan
      // poll it after every time block (TypedPlan::execute) — cheap, but a
      // predicate call per block for nothing. The deadline is finite only
      // when every live member has one, and then it is the LATEST: the hard
      // abort exists to reclaim the gang once NO member's budget can still
      // use the result — a member whose own budget expires mid-run still
      // receives the result of a run that completes in the others' budget.
      ExecControl ctl;
      const bool all_tokens =
          std::all_of(live.begin(), live.end(), [&](std::size_t i) {
            return g->members[i].cancel.valid();
          });
      if (all_tokens)
        ctl.cancelled = [g, live] {
          for (std::size_t i : live)
            if (!g->members[i].cancel.cancelled()) return false;
          return true;
        };
      bool all_dated = true;
      Clock::time_point latest = Clock::time_point::min();
      for (std::size_t i : live) {
        if (g->members[i].exec_deadline == kNoDeadline) {
          all_dated = false;
          break;
        }
        latest = std::max(latest, g->members[i].exec_deadline);
      }
      if (all_dated) ctl.deadline = latest;
      g->polled = ctl.active();

      GridRef exec_grid = g->members[live.front()].grid;
      std::uint64_t jitter_state = g->seq;

      for (int attempt = 0;; ++attempt) {
        try {
          fault_point(FaultSite::kGangDispatch);
          ctl.check();
          detail::execute_request(cache_, g->shape, g->spec, g->options,
                                  exec_grid, &ctl);
          break;
        } catch (...) {
          std::exception_ptr e = std::current_exception();
          if (!is_transient_error(e)) throw;
          if (attempt >= cfg_.retry_budget) {
            g->retry_exhausted = true;
            throw;
          }
          ++g->retries_used;
          double backoff_ms =
              std::min(cfg_.retry_backoff_ms * std::ldexp(1.0, attempt),
                       cfg_.retry_backoff_max_ms);
          backoff_ms *= 0.5 + 0.5 * uniform01(jitter_state);
          if (backoff_ms > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(backoff_ms));
        }
      }
      for (std::size_t k = 1; k < live.size(); ++k)
        copy_content(g->members[live[k]].grid, exec_grid);
    }
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

/// Completion accounting for one finished group, under mu_. A member's
/// outcome is its OWN error when run_group pruned it (cancelled or expired
/// before dispatch), otherwise the group's shared @p error; member_errors
/// holds the final per-member outcome afterwards.
std::vector<Scheduler::Result> Scheduler::finish_locked(
    Group& g, const std::exception_ptr& error) {
  const Clock::time_point now = Clock::now();
  std::vector<Result> results(g.members.size());
  g.member_errors.resize(g.members.size());
  stats_.retries += g.retries_used;
  if (g.retry_exhausted) ++stats_.retry_exhausted;
  if (g.polled) ++stats_.polled_executes;
  const auto rel = [this](Clock::time_point t) {
    return std::chrono::duration<double>(t - epoch_).count();
  };
  for (std::size_t i = 0; i < g.members.size(); ++i) {
    const Member& m = g.members[i];
    std::exception_ptr& e = g.member_errors[i];
    if (!e) e = error;
    char outcome = 'C';
    if (e) {
      ++stats_.failed;
      outcome = 'F';
      switch (err_kind(e)) {
        case ErrKind::kCancelled: ++stats_.cancelled; outcome = 'X'; break;
        case ErrKind::kTimeout: ++stats_.timed_out; outcome = 'T'; break;
        case ErrKind::kOther: break;
      }
    } else {
      Result& r = results[i];
      r.dispatch_seq = g.dispatch_seq;
      r.latency_seconds =
          std::chrono::duration<double>(now - m.admitted).count();
      r.deadline_missed = m.deadline != kNoDeadline && now > m.deadline;
      r.coalesced = m.follower;
      ++stats_.completed;
      if (r.deadline_missed) ++stats_.deadline_missed;
      stats_.latency[static_cast<std::size_t>(m.cls)].record(
          r.latency_seconds);
    }
    if (cfg_.trace_capacity > 0) {
      TraceSpan ts;
      ts.seq = g.seq;
      ts.dispatch_seq = g.dispatch_seq;
      ts.cls = m.cls;
      ts.coalesced = m.follower;
      ts.outcome = outcome;
      ts.submit_s = rel(m.admitted);
      ts.dispatch_s = rel(g.dispatched);
      ts.sweep_s = rel(g.sweep_start);
      ts.complete_s = rel(now);
      push_trace_locked(ts);
    }
  }
  return results;
}

void Scheduler::push_trace_locked(const TraceSpan& ts) {
  if (trace_ring_.size() < cfg_.trace_capacity) {
    trace_ring_.push_back(ts);
    return;
  }
  trace_ring_[trace_pos_] = ts;
  trace_pos_ = (trace_pos_ + 1) % cfg_.trace_capacity;
}

void Scheduler::pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void Scheduler::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void Scheduler::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && inflight_ == 0; });
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
    s.queued = queue_.size();
    s.inflight = inflight_;
    s.executor.gangs = gang_stats_;
    // Oldest-first: the ring overwrites at trace_pos_, so chronological
    // order is [trace_pos_, end) then [0, trace_pos_).
    s.traces.reserve(trace_ring_.size());
    for (std::size_t i = 0; i < trace_ring_.size(); ++i)
      s.traces.push_back(
          trace_ring_[(trace_pos_ + i) % trace_ring_.size()]);
  }
  s.executor.uptime_seconds = uptime_.seconds();
  s.executor.plan_cache = cache_.stats();
  s.executor.workspaces = cache_.workspace_stats();
  return s;
}

}  // namespace tsv
