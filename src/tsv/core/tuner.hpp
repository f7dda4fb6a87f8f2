#pragma once
// Empirical block-size autotuner (plan-time; Options::tune knob).
//
// make_plan with tune != kOff resolves bx/by/bz/bt by timing short trials of
// a cache-topology-seeded candidate set on a synthetic grid of the planned
// shape, instead of trusting the fixed heuristics in plan.cpp. Results are
// memoized in a process-wide cache keyed by the full resolved tuple
// (method, tiling, rank, isa, dtype, shape, radius, threads, steps, and the
// user's pinned block fields — see TuneKey), and the cache round-trips
// through JSON so benches and CI can pin tuned configurations:
//
//   tsv::Options o{.tiling = tsv::Tiling::kTessellate, .steps = 1000,
//                  .tune = tsv::Tune::kCached};
//   auto plan = tsv::make_plan(shape, stencil, o);   // trials on first miss
//   tsv::tune_cache_export_json("tuned.json");       // pin for later runs
//
// Only fields the user left at 0 are searched; explicitly set blocks are
// respected (pinned) by the candidate generator. Candidates are legal by
// construction for the tessellate rules and re-validated by resolve_options,
// so a tuned plan can never be less valid than a default one. Trials run
// with tune = kOff (no recursion) and are budgeted: the trial step count is
// capped so one make_plan spends milliseconds-to-seconds, not minutes, even
// on LLC-exceeding grids.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tsv/core/options.hpp"

namespace tsv {

/// One blocking choice, in Options units (bx/by/bz in elements / rows /
/// planes exactly as Options interprets them for the tiling; bt in steps).
struct TunedBlocks {
  index bx = 0, by = 0, bz = 0, bt = 0;

  friend bool operator==(const TunedBlocks& a, const TunedBlocks& b) {
    return a.bx == b.bx && a.by == b.by && a.bz == b.bz && a.bt == b.bt;
  }
};

/// Identity of one tuning decision: everything the optimum can depend on.
struct TuneKey {
  Method method{};
  Tiling tiling{};
  int rank = 0;
  Isa isa{};       ///< concrete (resolved) ISA, never kAuto
  Dtype dtype{};
  index nx = 0, ny = 1, nz = 1;
  int radius = 0;
  int threads = 0;  ///< concrete (resolved) team size
  /// Run length the plan was tuned for. Part of the key because the
  /// candidate set depends on it (bt > 2*steps is pruned) — a short-run
  /// winner must not be served to a long-run plan.
  index steps = 0;
  /// The user's explicitly pinned block fields (0 = unpinned). Part of the
  /// key because pins constrain the search space: a winner found under one
  /// pin set must not be served to a plan with different pins.
  index pin_bx = 0, pin_by = 0, pin_bz = 0, pin_bt = 0;
  /// Resolved per-axis boundary conditions. Part of the key because a
  /// periodic/Neumann axis changes what runs (ring tiling on periodic
  /// axes, split tiling at bt = 1) — blocks tuned under one boundary regime
  /// must not be served to another.
  BoundarySpec boundary;

  friend bool operator==(const TuneKey&, const TuneKey&) = default;
  friend bool operator<(const TuneKey& a, const TuneKey& b);
};

/// The inverse of tune_name(); nullopt for unknown spellings.
std::optional<Tune> tune_from_name(std::string_view name);

/// Cumulative tuner accounting (process-wide, monotone except for
/// tune_counters_reset). The load-bearing invariants, exported through
/// core/metrics.hpp and pinned by tests/test_tunedb.cpp:
///
///   * memo_hits <= lookups; misses are lookups - memo_hits.
///   * db_warm_hits <= memo_hits: a warm hit is a memo hit whose entry came
///     from a tune database load (core/tunedb.hpp) rather than a trial.
///   * trial_executions == 0 across a plan whose key was warm-loaded — the
///     "zero timed trials on warm start" guarantee is THIS counter staying
///     flat, not an absence of log lines.
struct TuneCounters {
  std::uint64_t lookups = 0;           ///< tune_cache_lookup calls
  std::uint64_t memo_hits = 0;         ///< lookups that found an entry
  std::uint64_t db_warm_hits = 0;      ///< memo hits served by a db entry
  std::uint64_t trial_searches = 0;    ///< timed candidate races run
  std::uint64_t trial_executions = 0;  ///< timed trial executes (2 per cand.)
  std::uint64_t db_loads = 0;          ///< successful tune_db_load calls
  std::uint64_t db_entries_loaded = 0; ///< entries merged by those loads
  std::uint64_t db_load_rejects = 0;   ///< loads ignored (corrupt/mismatch)
  std::uint64_t db_saves = 0;          ///< successful tune_db_save calls
};

/// Snapshot of the process-wide counters (each field individually atomic:
/// cross-field identities are exact only at quiesce, like every other stats
/// snapshot in this library).
TuneCounters tune_counters();
void tune_counters_reset();

// ---- process-wide memo cache (thread-safe) ---------------------------------

std::optional<TunedBlocks> tune_cache_lookup(const TuneKey& key);
void tune_cache_store(const TuneKey& key, const TunedBlocks& blocks);
/// Store an entry loaded from a persistent tune database. Identical to
/// tune_cache_store except the entry is marked as db-originated, so lookups
/// that it serves count in TuneCounters::db_warm_hits. A later trial result
/// for the same key (tune_cache_store) clears the mark — the entry is then
/// this process's own work.
void tune_cache_store_from_db(const TuneKey& key, const TunedBlocks& blocks);
void tune_cache_clear();
std::size_t tune_cache_size();

/// Ordered copy of the whole cache (db-origin marks dropped: persistence
/// does not care who produced an entry, only what it says).
std::vector<std::pair<TuneKey, TunedBlocks>> tune_cache_snapshot();

/// Process-wide single-flight lock for plan-time tuning TRIALS (the memo
/// cache itself has its own internal mutex). Concurrent make_plan calls
/// with tuning enabled must not run timed trials simultaneously: two
/// overlapping trials time-share the cores and memoize each other's noise
/// as the "optimal" blocks, and N concurrent kCached misses on the same key
/// would each pay the full search. The plan layer (core/plan.hpp) takes
/// this lock around the trial section and re-checks the cache after
/// acquiring it, so N racing planners run exactly one search.
std::mutex& tune_trial_mutex();

// ---- JSON pinning ----------------------------------------------------------

/// Serializes @p entries as the tuner's JSON array of flat objects (stable
/// key order is the caller's responsibility; tune_cache_snapshot is already
/// ordered). This is the entry payload core/tunedb.hpp wraps in its
/// versioned envelope.
std::string tune_entries_to_json(
    const std::vector<std::pair<TuneKey, TunedBlocks>>& entries);

/// Parses a tuner JSON array without touching the cache. All-or-nothing:
/// throws std::invalid_argument on malformed input or unknown enum names,
/// returning nothing rather than a prefix.
std::vector<std::pair<TuneKey, TunedBlocks>> tune_entries_from_json(
    const std::string& json);

/// Serializes the whole cache as a JSON array of flat objects (stable key
/// order, one entry per line).
std::string tune_cache_to_json();

/// Merges entries parsed from @p json into the cache (imported entries win).
/// Returns the number of entries merged; throws std::invalid_argument on
/// malformed input or unknown enum names.
std::size_t tune_cache_from_json(const std::string& json);

/// File variants of the above. Export returns false when the file cannot be
/// written; import returns the number of entries merged and throws on
/// malformed content (a missing file throws too — pinning must be loud).
bool tune_cache_export_json(const std::string& path);
std::size_t tune_cache_import_json(const std::string& path);

// ---- candidate generation (pure; used by the plan layer) -------------------

/// Topology-seeded candidate blockings for a tiled plan (block sizes are
/// seeded from the detected L1/L2 capacities and the shape). Fields the
/// user pinned (non-zero in @p user) are kept at the pinned value in every
/// candidate. Every candidate satisfies the
/// tessellate legality bound (multi-tile axes >= 2 * slope * tau) for the
/// shape it was generated for. The first candidate is always the
/// fixed-heuristic default (the user's own fields), so tuning can never
/// pick something worse than "don't tune" by more than trial noise.
std::vector<TunedBlocks> tune_candidates(int rank, index nx, index ny,
                                         index nz, int radius, Tiling tiling,
                                         index steps, const Options& user);

/// Trial step count for one candidate: enough steps to exercise the
/// temporal blocking (>= one full time block) but budget-capped so trials
/// on LLC-exceeding grids stay short. Never exceeds @p steps (the real run
/// length) when that is smaller.
index tune_trial_steps(index points, index bt, index steps);

namespace detail {

/// Accounting hooks for the plan layer (core/plan.hpp) and the tune
/// database (core/tunedb.cpp). Not user API.
void tune_note_trials(std::uint64_t searches, std::uint64_t executions);
void tune_note_db_load(std::uint64_t entries);
void tune_note_db_reject();
void tune_note_db_save();

}  // namespace detail

}  // namespace tsv
