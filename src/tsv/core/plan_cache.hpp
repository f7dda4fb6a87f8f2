#pragma once
// Thread-safe cache of rank-erased Plans, keyed by everything a
// plan's construction depends on (the PlanKey mirrors the tuner's TuneKey
// and extends it with the stencil spec and the full option set).
//
// Why it exists: plan construction is the expensive, shared-state part of
// the pipeline — registry validation, ISA/block resolution, kernel binding,
// and (with Options::tune) timed autotuning trials. A service executing
// many requests must pay that once per distinct configuration, not once per
// request, and must be able to deduplicate CONCURRENT requests for the same
// configuration: the cache single-flights construction per entry, so N
// racing submitters build one plan and share it.
//
// Each cached entry also owns a WorkspacePool (core/workspace.hpp). A Plan
// is immutable after construction and safe to share across threads, but
// scratch buffers are not — every in-flight execution checks a private
// Workspace out of the entry's pool. Pooling per entry (rather than one
// global pool) means a recycled workspace's slot keys always match the next
// request of that entry, so steady-state checkouts are allocation-free.
//
//   tsv::PlanCache cache;
//   auto entry = cache.get(shape, spec, options);   // hit or single-flight build
//   auto ws = entry->workspaces().checkout();       // exclusive scratch
//   entry->plan().execute(grid, *ws);               // concurrent-safe
//
// One mutex guards the one map. It is held only for the find-or-insert
// (and any eviction), never across a build; a Scheduler probes from one
// thread per gang, so few callers ever contend for it.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "tsv/core/plan.hpp"
#include "tsv/core/problems.hpp"
#include "tsv/core/workspace.hpp"

namespace tsv {

/// Identity of one cached plan: the full (shape, stencil spec, options)
/// tuple, with don't-care fields normalized (spec.radius of 0 resolves to
/// the kind's own radius; boundary axes beyond the rank normalize to the
/// frozen default) so equivalent requests cannot miss each other.
struct PlanKey {
  // Stencil identity. Coefficients are stored as IEEE bit patterns, not
  // doubles: the key orders a std::map, and double's operator< is not a
  // strict weak order in the presence of NaN (a NaN coefficient would
  // compare "equivalent" to anything, silently aliasing another entry's
  // plan and corrupting the map's invariants). Bit patterns give a total
  // order and keep every distinct value — including any NaN a caller
  // computed from bad input — a distinct entry.
  StencilKind kind{};
  int radius = 0;
  std::vector<std::uint64_t> coeff_bits;
  /// Runtime-programmable stencils (StencilSpec::generic): rank, tap count,
  /// every tap's packed offset and weight bit pattern, and — when a per-cell
  /// coefficient field is present — its extents plus an FNV-1a digest of the
  /// field values. Empty for the compiled kinds, so the field is free for
  /// the common case; distinct tap sets (or scale fields) can never alias
  /// one cached plan.
  std::vector<std::uint64_t> generic_bits;
  // Grid geometry.
  int rank = 0;
  index nx = 0, ny = 1, nz = 1;
  index halo = 1;
  // The user-visible option fields plan construction consumes. Stored as
  // REQUESTED (kAuto ISA, 0-default blocks), not resolved: resolution is
  // deterministic per process, so requested fields identify the plan, and
  // keying pre-resolution means a cache probe never runs validation.
  Method method{};
  Tiling tiling{};
  Isa isa{};
  Dtype dtype{};
  index steps = 0;
  index bx = 0, by = 0, bz = 0, bt = 0;
  int threads = 0;
  int max_threads = 0;
  Tune tune{};
  StreamMode stream{};
  std::uint64_t stream_threshold_bits = 0;  ///< bit pattern; see coeff_bits
  BoundarySpec boundary;
  HealthCheck health{};

  /// Builds the normalized key for (shape, spec, options).
  static PlanKey make(const Shape& shape, const StencilSpec& spec,
                      const Options& o);

  // Equality and ordering both derive from ONE field list (key_tie in
  // plan_cache.cpp); a new field needs exactly one entry there to
  // participate in both consistently.
  friend bool operator==(const PlanKey& a, const PlanKey& b);
  friend bool operator<(const PlanKey& a, const PlanKey& b);
};

/// Cumulative cache accounting. hits + misses = number of get() calls. A
/// miss is a call that performed (or attempted) plan construction — so a
/// retry against a previously failed key counts as a miss even though its
/// entry was found in the map; a hit always returned a ready plan without
/// building. entries counts distinct configurations currently cached;
/// evictions counts idle entries dropped to honor the size bound.
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
};

class PlanCache {
 public:
  /// One cached configuration: the (lazily built, immutable) Plan plus the
  /// workspace reuse pool its concurrent executions draw from.
  ///
  /// The single-flight build is a hand-rolled mutex + condvar state machine
  /// rather than std::call_once: an exceptional build must release the
  /// in-flight state so a later get() of the same (deterministically
  /// invalid) key throws again, and exceptions escaping call_once deadlock
  /// under ThreadSanitizer's pthread_once interceptor — the TSan CI job
  /// exercises exactly this path.
  class Entry {
   public:
    /// The cached plan. Only callable after PlanCache::get returned this
    /// entry (get() guarantees the single-flight build has completed).
    const Plan& plan() const { return *plan_; }
    WorkspacePool& workspaces() { return pool_; }

   private:
    friend class PlanCache;
    enum class State { kUnbuilt, kBuilding, kBuilt };

    std::mutex mu_;
    std::condition_variable cv_;
    State state_ = State::kUnbuilt;
    std::optional<Plan> plan_;
    WorkspacePool pool_;
  };

  /// @p max_entries bounds the cache (0 = unbounded). A long-running
  /// service sees unboundedly many distinct keys whenever requests vary in
  /// steps or runtime coefficients, and every entry retains a workspace
  /// pool of grid-sized scratch — so the default is bounded: when the cache
  /// is full, idle entries (no in-flight requests holding them) are evicted
  /// and simply rebuilt on their next use.
  explicit PlanCache(std::size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries) {}
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Plans are a few hundred bytes but their workspace pools hold
  /// grid-sized buffers; 256 distinct live configurations is far beyond
  /// any sane service mix while keeping worst-case retention bounded.
  static constexpr std::size_t kDefaultMaxEntries = 256;

  /// Returns the entry for (shape, spec, options), building the plan on
  /// first use. Concurrent calls with the same key single-flight the build:
  /// exactly one caller runs make_plan, the rest block until it finishes
  /// and share the result. Construction failures (ConfigError) propagate to
  /// every waiting caller and leave the entry unbuilt, so a later call with
  /// the same (deterministically invalid) key throws again rather than
  /// returning a half-made plan.
  std::shared_ptr<Entry> get(const Shape& shape, const StencilSpec& spec,
                             const Options& o);

  PlanCacheStats stats() const;

  /// Sum of every entry's workspace-pool stats (service observability).
  WorkspacePool::Stats workspace_stats() const;

  /// Drops every cached plan and pool. Outstanding shared_ptr<Entry>
  /// holders (in-flight requests) keep their entries alive; the cache just
  /// forgets them.
  void clear();

  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<PlanKey, std::shared_ptr<Entry>> entries_;
  std::size_t max_entries_ = kDefaultMaxEntries;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  /// Lifetime created/reused totals of evicted entries' pools, folded into
  /// workspace_stats() so cumulative counters survive eviction.
  std::atomic<std::uint64_t> retired_ws_created_{0};
  std::atomic<std::uint64_t> retired_ws_reused_{0};
};

}  // namespace tsv
