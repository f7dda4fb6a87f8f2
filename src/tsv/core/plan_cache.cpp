#include "tsv/core/plan_cache.hpp"

#include <bit>
#include <tuple>

#include "tsv/core/generic_stencil.hpp"

namespace tsv {

namespace {

// THE key identity: ordering and equality both derive from this one tuple,
// so a future field added to PlanKey (and PlanKey::make) only needs one
// more entry here to participate in both consistently.
auto key_tie(const PlanKey& k) {
  return std::tie(k.kind, k.radius, k.coeff_bits, k.generic_bits, k.rank,
                  k.nx, k.ny, k.nz,
                  k.halo, k.method, k.tiling, k.isa, k.dtype, k.steps, k.bx,
                  k.by, k.bz, k.bt, k.threads, k.max_threads, k.tune,
                  k.stream, k.stream_threshold_bits, k.boundary.x,
                  k.boundary.y, k.boundary.z, k.health);
}

}  // namespace

bool operator<(const PlanKey& a, const PlanKey& b) {
  return key_tie(a) < key_tie(b);
}

bool operator==(const PlanKey& a, const PlanKey& b) {
  return key_tie(a) == key_tie(b);
}

PlanKey PlanKey::make(const Shape& shape, const StencilSpec& spec,
                      const Options& o) {
  PlanKey k;
  k.kind = spec.kind;
  // radius 0 means "the kind's own"; normalize so the two spellings of the
  // same stencil share one entry. (A WRONG explicit radius also normalizes
  // — and then fails in make_plan exactly as it would uncached.)
  k.radius = spec.radius != 0 ? spec.radius : stencil_kind_radius(spec.kind);
  k.coeff_bits.reserve(spec.coeffs.size());
  for (double c : spec.coeffs)
    k.coeff_bits.push_back(std::bit_cast<std::uint64_t>(c));
  if (spec.generic != nullptr) {
    // A runtime-programmable spec ignores kind/radius/coeffs (make_plan
    // routes on the GenericStencil alone), so the key must carry the full
    // tap set instead: rank, count, and per tap the packed offset plus the
    // weight's bit pattern (same NaN-safe reasoning as coeff_bits). The
    // radius slot reuses the shape's effective radius — the structural fact
    // lowering dispatches on.
    const GenericStencil& gs = *spec.generic;
    k.radius = gs.effective_radius();
    k.generic_bits.reserve(2 + 2 * gs.taps.size() + 2);
    k.generic_bits.push_back(static_cast<std::uint64_t>(gs.rank));
    k.generic_bits.push_back(gs.taps.size());
    for (const GenericTap& t : gs.taps) {
      const auto off = static_cast<std::uint64_t>(t.dx + 128) |
                       (static_cast<std::uint64_t>(t.dy + 128) << 8) |
                       (static_cast<std::uint64_t>(t.dz + 128) << 16);
      k.generic_bits.push_back(off);
      k.generic_bits.push_back(std::bit_cast<std::uint64_t>(t.weight));
    }
    if (!gs.scale.empty()) {
      // Scale fields are grid-sized; digest rather than copy. FNV-1a over
      // the value bit patterns keeps distinct fields (overwhelmingly)
      // distinct entries without retaining megabytes per key.
      k.generic_bits.push_back(static_cast<std::uint64_t>(gs.scale_nx) |
                               (static_cast<std::uint64_t>(gs.scale_ny) << 21) |
                               (static_cast<std::uint64_t>(gs.scale_nz) << 42));
      std::uint64_t digest = 1469598103934665603ull;
      for (double v : gs.scale) {
        digest ^= std::bit_cast<std::uint64_t>(v);
        digest *= 1099511628211ull;
      }
      k.generic_bits.push_back(digest);
    }
  }
  k.rank = shape.rank;
  k.nx = shape.nx;
  k.ny = shape.ny;
  k.nz = shape.nz;
  k.halo = shape.halo;
  k.method = o.method;
  k.tiling = o.tiling;
  k.isa = o.isa;
  k.dtype = o.dtype;
  k.steps = o.steps;
  k.bx = o.bx;
  k.by = o.by;
  k.bz = o.bz;
  k.bt = o.bt;
  k.threads = o.threads;
  k.max_threads = o.max_threads;
  k.tune = o.tune;
  k.stream = o.stream;
  k.stream_threshold_bits = std::bit_cast<std::uint64_t>(o.stream_threshold);
  // Axes beyond the rank normalize to the frozen default, mirroring
  // resolve_options — otherwise {kPeriodic x, junk z} and {kPeriodic x}
  // would occupy two entries for one plan.
  k.boundary = o.boundary;
  if (k.rank < 2) k.boundary.y = Boundary::kDirichlet;
  if (k.rank < 3) k.boundary.z = Boundary::kDirichlet;
  k.health = o.health_check;
  return k;
}

std::shared_ptr<PlanCache::Entry> PlanCache::get(const Shape& shape,
                                                 const StencilSpec& spec,
                                                 const Options& o) {
  const PlanKey key = PlanKey::make(shape, spec, o);
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      entry = it->second;
    } else {
      // Size bound: before inserting into a full cache, drop idle entries
      // — ones no in-flight request still holds (use_count == 1: the map's
      // own reference). An evicted configuration is merely rebuilt on its
      // next use; entries pinned by running requests are never touched, so
      // the cache can exceed max_entries_ only while that many requests are
      // simultaneously in flight. The evicted pools' lifetime totals move
      // into the retired accumulators so workspace_stats() never goes
      // backwards.
      if (max_entries_ > 0) {
        for (auto it2 = entries_.begin();
             entries_.size() >= max_entries_ && it2 != entries_.end();) {
          if (it2->second.use_count() == 1) {
            const WorkspacePool::Stats dead = it2->second->pool_.stats();
            retired_ws_created_.fetch_add(dead.created,
                                          std::memory_order_relaxed);
            retired_ws_reused_.fetch_add(dead.reused,
                                         std::memory_order_relaxed);
            it2 = entries_.erase(it2);
            evictions_.fetch_add(1, std::memory_order_relaxed);
          } else {
            ++it2;
          }
        }
      }
      entry = std::make_shared<Entry>();
      entries_.emplace(key, entry);
    }
  }
  // Build OUTSIDE the cache lock: plan construction can run autotuning
  // trials lasting milliseconds-to-seconds, and the other configurations
  // must not stall behind them. The entry's own state machine
  // single-flights the build: one caller claims kBuilding and runs
  // make_plan unlocked, everyone else waits; a build failure releases the
  // claim (the next waiter retries and throws the same deterministic
  // ConfigError) while propagating to the claimant's caller.
  //
  // Hit/miss accounting follows the build OUTCOME, not map presence: a
  // caller that performed (or attempted) construction counts as a miss
  // even when the kUnbuilt entry was already in the map from an earlier
  // failure — a "hit" that re-runs make_plan would let a dashboard show a
  // healthy hit rate while every request pays full construction.
  bool built_here = false;
  std::unique_lock<std::mutex> lock(entry->mu_);
  while (entry->state_ != Entry::State::kBuilt) {
    if (entry->state_ == Entry::State::kUnbuilt) {
      entry->state_ = Entry::State::kBuilding;
      built_here = true;
      lock.unlock();
      try {
        // Pre-build: an injected fault here models a failed construction
        // (e.g. an allocation failure inside autotuning trials); the claim
        // release below makes it retry-clean for every waiter.
        fault_point(FaultSite::kPlanBuild);
        Plan plan = make_plan(shape, spec, o);
        lock.lock();
        entry->plan_.emplace(std::move(plan));
        entry->state_ = Entry::State::kBuilt;
        entry->cv_.notify_all();
      } catch (...) {
        lock.lock();
        entry->state_ = Entry::State::kUnbuilt;
        entry->cv_.notify_all();
        misses_.fetch_add(1, std::memory_order_relaxed);
        throw;
      }
    } else {
      entry->cv_.wait(lock, [&] {
        return entry->state_ != Entry::State::kBuilding;
      });
    }
  }
  (built_here ? misses_ : hits_).fetch_add(1, std::memory_order_relaxed);
  return entry;
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = size();
  return s;
}

WorkspacePool::Stats PlanCache::workspace_stats() const {
  WorkspacePool::Stats total;
  // Lifetime totals of pools whose entries were evicted: without these the
  // cumulative created/reused counters would go BACKWARDS across an
  // eviction, breaking monitors that difference successive reads.
  total.created = retired_ws_created_.load(std::memory_order_relaxed);
  total.reused = retired_ws_reused_.load(std::memory_order_relaxed);
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, e] : entries_) entries.push_back(e);
  }
  for (const auto& e : entries) {
    const WorkspacePool::Stats s = e->pool_.stats();
    total.created += s.created;
    total.reused += s.reused;
    total.free += s.free;
    total.in_flight += s.in_flight;
  }
  return total;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, e] : entries_) {
    const WorkspacePool::Stats dead = e->pool_.stats();
    retired_ws_created_.fetch_add(dead.created, std::memory_order_relaxed);
    retired_ws_reused_.fetch_add(dead.reused, std::memory_order_relaxed);
  }
  entries_.clear();
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace tsv
