#include "tsv/core/fault.hpp"

#include <cstdlib>
#include <mutex>
#include <new>

namespace tsv {

namespace {

std::uint64_t fnv1a(const char* s) {
  std::uint64_t h = 1469598103934665603ull;
  for (; *s; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr const char* kSiteNames[kFaultSiteCount] = {
    "workspace.alloc", "plan.build",     "executor.dispatch",
    "kernel.sweep",    "workspace.slot",
};

}  // namespace

bool is_transient_error(const std::exception_ptr& ep) noexcept {
  if (!ep) return false;
  try {
    std::rethrow_exception(ep);
  } catch (const TsvError& e) {
    return e.is_transient();
  } catch (const std::bad_alloc&) {
    return true;  // memory pressure: the retry's backoff is the remedy
  } catch (...) {
    return false;
  }
}

ExecControl::Stop ExecControl::poll() const {
  if (cancelled && cancelled()) return Stop::kCancelled;
  if (deadline != Clock::time_point::max() && Clock::now() >= deadline)
    return Stop::kTimeout;
  return Stop::kNone;
}

void ExecControl::raise(Stop why) {
  if (why == Stop::kCancelled) throw CancelledError("request cancelled");
  if (why == Stop::kTimeout) throw TimeoutError("request timeout expired");
}

const char* fault_site_name(FaultSite site) noexcept {
  return kSiteNames[static_cast<int>(site)];
}

// Per-point state. The mutex serializes the rng stream and the trigger
// config; the fast path never touches it (fault_point() checks enabled()
// first, and the common production state is "disabled").
struct FaultInjector::Point {
  mutable std::mutex mu;
  std::uint64_t rng = 0;
  Config cfg;
  bool armed = false;
  PointStats st;
};

FaultInjector& FaultInjector::instance() {
  // Leaked singleton: fault points are hit from gang workers that may
  // outlive static destruction order in exotic shutdown paths.
  static FaultInjector* fi = new FaultInjector();
  return *fi;
}

FaultInjector::FaultInjector() {
  for (int i = 0; i < kFaultSiteCount; ++i)
    points_[i] = std::make_unique<Point>();
  if (const char* s = std::getenv("TSV_FAULT_SEED"))
    base_seed_ = std::strtoull(s, nullptr, 0);
  seed(base_seed_);
  if (const char* e = std::getenv("TSV_FAULT_INJECTION"))
    enabled_.store(e[0] == '1', std::memory_order_relaxed);
}

void FaultInjector::set_enabled(bool on) noexcept {
  enabled_.store(on, std::memory_order_relaxed);
}

void FaultInjector::seed(std::uint64_t s) {
  base_seed_ = s;
  for (int i = 0; i < kFaultSiteCount; ++i) {
    Point& p = *points_[i];
    std::lock_guard<std::mutex> lk(p.mu);
    p.rng = s ^ fnv1a(kSiteNames[i]);
    p.st = PointStats{};
  }
}

int FaultInjector::index_of(const std::string& point) const {
  for (int i = 0; i < kFaultSiteCount; ++i)
    if (point == kSiteNames[i]) return i;
  throw std::out_of_range("FaultInjector: unknown fault point '" + point +
                          "'");
}

void FaultInjector::arm(const std::string& point, Config cfg) {
  Point& p = *points_[index_of(point)];
  {
    std::lock_guard<std::mutex> lk(p.mu);
    p.cfg = cfg;
    p.armed = true;
  }
  set_enabled(true);
}

void FaultInjector::disarm(const std::string& point) {
  Point& p = *points_[index_of(point)];
  std::lock_guard<std::mutex> lk(p.mu);
  p.armed = false;
}

void FaultInjector::reset() {
  for (int i = 0; i < kFaultSiteCount; ++i) {
    Point& p = *points_[i];
    std::lock_guard<std::mutex> lk(p.mu);
    p.armed = false;
    p.cfg = Config{};
    p.st = PointStats{};
    p.rng = base_seed_ ^ fnv1a(kSiteNames[i]);
  }
}

FaultInjector::PointStats FaultInjector::stats(const std::string& point) const {
  const Point& p = *points_[index_of(point)];
  std::lock_guard<std::mutex> lk(p.mu);
  return p.st;
}

void FaultInjector::maybe_fire(FaultSite site) {
  Point& p = *points_[static_cast<int>(site)];
  bool fire = false;
  {
    std::lock_guard<std::mutex> lk(p.mu);
    if (!p.armed) return;
    ++p.st.passes;
    if (p.cfg.once) {
      fire = true;
      p.armed = false;
    } else if (p.cfg.count > 0 && p.st.passes <= p.cfg.count) {
      fire = true;
    } else if (p.cfg.probability > 0.0) {
      // 53-bit uniform in [0, 1) from the point's private stream: the
      // schedule depends only on (seed, pass order), never on wall time.
      const double u =
          static_cast<double>(splitmix64(p.rng) >> 11) * 0x1.0p-53;
      fire = u < p.cfg.probability;
    }
    if (fire) ++p.st.fires;
  }
  if (!fire) return;
  throw TransientError(std::string("injected transient fault at ") +
                       kSiteNames[static_cast<int>(site)]);
}

}  // namespace tsv
