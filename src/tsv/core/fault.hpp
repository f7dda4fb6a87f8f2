// Resilience primitives: the structured error taxonomy every layer throws
// from, cooperative cancellation/timeout plumbing, and a deterministic,
// seed-replayable fault injector.
//
// Error taxonomy
// --------------
// `TsvError` is a mixin base (not a std::exception subclass) so existing
// exception types can adopt it without changing their std:: lineage:
// `ConfigError` stays a `std::invalid_argument`, `OverloadError` stays a
// `std::runtime_error`, and both now ALSO inherit `TsvError`. Callers that
// only care about retryability catch via `is_transient_error()` on the
// exception_ptr; callers that care about the class catch the concrete type.
//
//   TsvError (mixin, is_transient() -> false)
//    +- ConfigError     invalid request/options        (capability.hpp)
//    +- OverloadError   admission rejected / shed      (scheduler.hpp)
//    +- TransientError  retryable infrastructure fault (is_transient -> true)
//    +- TimeoutError    per-request deadline expired
//    +- CancelledError  cooperative cancel delivered
//    +- NumericalError  NaN/Inf detected by a health scan (health.hpp)
//
// std::bad_alloc is treated as transient by is_transient_error(): an OOM
// inside a WorkspacePool checkout is exactly the kind of pressure spike a
// backoff-retry absorbs.
//
// Fault injection
// ---------------
// Five named fault points thread through the execution stack:
//
//   workspace.alloc     WorkspacePool::checkout, before any allocation
//   plan.build          PlanCache::get, before make_plan
//   executor.dispatch   Scheduler gang, before a group's execution starts
//   kernel.sweep        TypedPlan::execute, before the kernel dispatch
//   workspace.slot      Workspace::slot, before a scratch buffer is created
//
// Every site fires BEFORE the step it guards mutates anything and throws
// TransientError, so a fault is always retry-safe: re-running the same plan
// from the same input is bit-identical to a fault-free run. workspace.slot
// is the one site inside a plan's execution; it is pre-mutation because
// TypedPlan::execute creates every slot a run uses (prepare) before its
// first write to the grid, so a real bad_alloc there is too. That re-run is
// the only recovery path — the Scheduler's retry_budget — so a recovered
// request always runs the configuration it was planned for.
//
// The injector is off unless the environment sets TSV_FAULT_INJECTION=1
// (checked once at first use); when off, `fault_point()` is a single
// relaxed atomic load. Armed points fire deterministically: each point
// owns a splitmix64 stream seeded from TSV_FAULT_SEED (or `seed()`) xor
// the point name's FNV-1a hash, so a given (seed, submission order) replays
// the same fault schedule — chaos tests assert exact outcomes, not
// distributions.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "tsv/common/aligned.hpp"

namespace tsv {

// ---------------------------------------------------------------------------
// Error taxonomy.
// ---------------------------------------------------------------------------

// Mixin root of the library's error taxonomy. Deliberately NOT derived from
// std::exception: concrete errors keep their natural std:: base
// (invalid_argument, runtime_error) and add this one, so `catch (const
// TsvError&)` spans the whole taxonomy while `catch (const
// std::invalid_argument&)` still works for ConfigError.
class TsvError {
 public:
  virtual ~TsvError() = default;
  // True when retrying the same request against the same input can succeed
  // (resource pressure, injected transient faults). Config/overload/cancel/
  // timeout/numerical errors are not retryable: the request itself is the
  // problem.
  virtual bool is_transient() const noexcept { return false; }
};

// Retryable infrastructure fault: allocation pressure, an injected
// transient at any fault point (kernel sweep included), a failed
// (idempotent) halo exchange.
class TransientError : public std::runtime_error, public TsvError {
 public:
  explicit TransientError(const std::string& what)
      : std::runtime_error(what) {}
  bool is_transient() const noexcept override { return true; }
};

// The request's deadline budget (`timeout_ms`) expired before or during
// execution. Not transient: retrying an expired request cannot help.
class TimeoutError : public std::runtime_error, public TsvError {
 public:
  explicit TimeoutError(const std::string& what) : std::runtime_error(what) {}
};

// Cooperative cancellation was delivered through a CancelToken.
class CancelledError : public std::runtime_error, public TsvError {
 public:
  explicit CancelledError(const std::string& what)
      : std::runtime_error(what) {}
};

// A health scan (Options::health_check) found a non-finite value in the
// output. Carries the linear interior index of the first bad cell so the
// caller can localize the corruption.
class NumericalError : public std::runtime_error, public TsvError {
 public:
  NumericalError(const std::string& what, index first_bad)
      : std::runtime_error(what), first_bad_index_(first_bad) {}
  index first_bad_index() const noexcept { return first_bad_index_; }

 private:
  index first_bad_index_;
};

// Classify a captured exception for the retry loop: TsvError answers for
// itself, bad_alloc counts as transient (memory pressure), everything else
// is permanent. Null pointers are not an error (not transient).
bool is_transient_error(const std::exception_ptr& ep) noexcept;

// ---------------------------------------------------------------------------
// Cooperative cancellation.
// ---------------------------------------------------------------------------

// Copyable handle to a shared cancellation flag. Default-constructed tokens
// are inert (`valid() == false`, never cancelled); `CancelToken::make()`
// creates a live one. Cancel is cooperative: the Scheduler checks the token
// at dispatch and between time steps, so a cancelled long-running request
// frees its gang within one step, not one request.
class CancelToken {
 public:
  CancelToken() = default;
  static CancelToken make() {
    CancelToken t;
    t.flag_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }
  void cancel() const noexcept {
    if (flag_) flag_->store(true, std::memory_order_relaxed);
  }
  bool cancelled() const noexcept {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }
  bool valid() const noexcept { return flag_ != nullptr; }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

// Execution-control block threaded down to TypedPlan::execute: the plan
// polls it at dispatch and after every time block of its one driver call,
// and aborts with the matching error. `cancelled` is a predicate, not a
// token, so a coalesced group can encode "all live members cancelled"
// without the plan layer knowing about groups.
struct ExecControl {
  using Clock = std::chrono::steady_clock;
  Clock::time_point deadline = Clock::time_point::max();
  std::function<bool()> cancelled;

  /// Why a request should stop, if it should.
  enum class Stop { kNone, kCancelled, kTimeout };

  // True when this control can ever fire — lets the plan skip the block
  // hook entirely for plain requests.
  bool active() const {
    return static_cast<bool>(cancelled) ||
           deadline != Clock::time_point::max();
  }
  // Non-throwing poll (one call of the predicate): what the block hook runs
  // between time blocks, so a driver can stop at a block boundary and still
  // hand back the current level. Cancel wins over timeout: an explicit
  // cancel is the caller's word.
  Stop poll() const;
  // Throws CancelledError / TimeoutError for @p why; no-op for kNone.
  static void raise(Stop why);
  // raise(poll()).
  void check() const { raise(poll()); }
};

// ---------------------------------------------------------------------------
// Deterministic fault injection.
// ---------------------------------------------------------------------------

enum class FaultSite : int {
  kWorkspaceAlloc = 0,  // "workspace.alloc"
  kPlanBuild = 1,       // "plan.build"
  kGangDispatch = 2,    // "executor.dispatch"
  kKernelSweep = 3,     // "kernel.sweep"
  kWorkspaceSlot = 4,   // "workspace.slot"
};
inline constexpr int kFaultSiteCount = 5;

const char* fault_site_name(FaultSite site) noexcept;

class FaultInjector {
 public:
  struct Config {
    double probability = 0.0;  // fire on each pass with this probability
    std::uint64_t count = 0;   // additionally fire the first `count` passes
    bool once = false;         // fire exactly the next pass, then disarm
  };

  struct PointStats {
    std::uint64_t passes = 0;  // times the site was reached while enabled
    std::uint64_t fires = 0;   // times it threw
  };

  static FaultInjector& instance();

  // Master switch. Reads TSV_FAULT_INJECTION at construction; tests may
  // force it on without the environment.
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept;

  // Re-seed every point's deterministic stream and clear pass/fire
  // counters. Also applied by the TSV_FAULT_SEED environment variable.
  void seed(std::uint64_t s);

  // Arm a point by name ("workspace.alloc", ...). Throws std::out_of_range
  // for an unknown name. Arming implies set_enabled(true).
  void arm(const std::string& point, Config cfg);
  void disarm(const std::string& point);
  // Disarm every point and clear counters; leaves enabled() untouched.
  void reset();

  PointStats stats(const std::string& point) const;

  // Internal: called by fault_point() on the slow path.
  void maybe_fire(FaultSite site);

 private:
  FaultInjector();

  struct Point;
  std::unique_ptr<Point> points_[kFaultSiteCount];
  std::atomic<bool> enabled_{false};
  std::uint64_t base_seed_ = 0x9e3779b97f4a7c15ull;

  int index_of(const std::string& point) const;
};

// The fault point itself: a single relaxed load when injection is off (the
// only cost production code pays), a registry call when on.
inline void fault_point(FaultSite site) {
  FaultInjector& fi = FaultInjector::instance();
  if (fi.enabled()) fi.maybe_fire(site);
}

}  // namespace tsv
