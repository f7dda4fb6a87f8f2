#include "tsv/core/tuner.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "tsv/common/cpu.hpp"
#include "tsv/core/halo.hpp"
#include "tsv/core/registry.hpp"

namespace tsv {

const char* tune_name(Tune t) {
  switch (t) {
    case Tune::kOff: return "off";
    case Tune::kCached: return "cached";
    case Tune::kFull: return "full";
  }
  return "?";
}

std::optional<Tune> tune_from_name(std::string_view name) {
  for (Tune t : {Tune::kOff, Tune::kCached, Tune::kFull})
    if (name == tune_name(t)) return t;
  return std::nullopt;
}

namespace {

auto key_tie(const TuneKey& k) {
  return std::tie(k.method, k.tiling, k.rank, k.isa, k.dtype, k.nx, k.ny,
                  k.nz, k.radius, k.threads, k.steps, k.pin_bx, k.pin_by,
                  k.pin_bz, k.pin_bt, k.boundary.x, k.boundary.y,
                  k.boundary.z);
}

std::mutex& cache_mutex() {
  static std::mutex m;
  return m;
}

/// Cache slot: the tuned blocks plus where they came from. The origin mark
/// is what distinguishes a db WARM hit from an ordinary memo hit in the
/// counters; a fresh trial result overwrites the mark (the entry is then
/// this process's own measurement, not inherited state).
struct Slot {
  TunedBlocks blocks;
  bool from_db = false;
};

std::map<TuneKey, Slot>& cache() {
  static std::map<TuneKey, Slot> c;
  return c;
}

/// Monotone counters. Individually atomic (relaxed): readers take a
/// snapshot, not a transaction — same contract as every stats() in the
/// library.
struct Counters {
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<std::uint64_t> memo_hits{0};
  std::atomic<std::uint64_t> db_warm_hits{0};
  std::atomic<std::uint64_t> trial_searches{0};
  std::atomic<std::uint64_t> trial_executions{0};
  std::atomic<std::uint64_t> db_loads{0};
  std::atomic<std::uint64_t> db_entries_loaded{0};
  std::atomic<std::uint64_t> db_load_rejects{0};
  std::atomic<std::uint64_t> db_saves{0};
};

Counters& counters() {
  static Counters c;
  return c;
}

}  // namespace

bool operator<(const TuneKey& a, const TuneKey& b) {
  return key_tie(a) < key_tie(b);
}

TuneCounters tune_counters() {
  const Counters& c = counters();
  TuneCounters out;
  out.lookups = c.lookups.load(std::memory_order_relaxed);
  out.memo_hits = c.memo_hits.load(std::memory_order_relaxed);
  out.db_warm_hits = c.db_warm_hits.load(std::memory_order_relaxed);
  out.trial_searches = c.trial_searches.load(std::memory_order_relaxed);
  out.trial_executions = c.trial_executions.load(std::memory_order_relaxed);
  out.db_loads = c.db_loads.load(std::memory_order_relaxed);
  out.db_entries_loaded = c.db_entries_loaded.load(std::memory_order_relaxed);
  out.db_load_rejects = c.db_load_rejects.load(std::memory_order_relaxed);
  out.db_saves = c.db_saves.load(std::memory_order_relaxed);
  return out;
}

void tune_counters_reset() {
  Counters& c = counters();
  c.lookups.store(0, std::memory_order_relaxed);
  c.memo_hits.store(0, std::memory_order_relaxed);
  c.db_warm_hits.store(0, std::memory_order_relaxed);
  c.trial_searches.store(0, std::memory_order_relaxed);
  c.trial_executions.store(0, std::memory_order_relaxed);
  c.db_loads.store(0, std::memory_order_relaxed);
  c.db_entries_loaded.store(0, std::memory_order_relaxed);
  c.db_load_rejects.store(0, std::memory_order_relaxed);
  c.db_saves.store(0, std::memory_order_relaxed);
}

namespace detail {

void tune_note_trials(std::uint64_t searches, std::uint64_t executions) {
  counters().trial_searches.fetch_add(searches, std::memory_order_relaxed);
  counters().trial_executions.fetch_add(executions,
                                        std::memory_order_relaxed);
}

void tune_note_db_load(std::uint64_t entries) {
  counters().db_loads.fetch_add(1, std::memory_order_relaxed);
  counters().db_entries_loaded.fetch_add(entries, std::memory_order_relaxed);
}

void tune_note_db_reject() {
  counters().db_load_rejects.fetch_add(1, std::memory_order_relaxed);
}

void tune_note_db_save() {
  counters().db_saves.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

std::optional<TunedBlocks> tune_cache_lookup(const TuneKey& key) {
  counters().lookups.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(cache_mutex());
  auto it = cache().find(key);
  if (it == cache().end()) return std::nullopt;
  counters().memo_hits.fetch_add(1, std::memory_order_relaxed);
  if (it->second.from_db)
    counters().db_warm_hits.fetch_add(1, std::memory_order_relaxed);
  return it->second.blocks;
}

void tune_cache_store(const TuneKey& key, const TunedBlocks& blocks) {
  std::lock_guard<std::mutex> lock(cache_mutex());
  cache()[key] = Slot{blocks, false};
}

void tune_cache_store_from_db(const TuneKey& key, const TunedBlocks& blocks) {
  std::lock_guard<std::mutex> lock(cache_mutex());
  cache()[key] = Slot{blocks, true};
}

void tune_cache_clear() {
  std::lock_guard<std::mutex> lock(cache_mutex());
  cache().clear();
}

std::size_t tune_cache_size() {
  std::lock_guard<std::mutex> lock(cache_mutex());
  return cache().size();
}

std::vector<std::pair<TuneKey, TunedBlocks>> tune_cache_snapshot() {
  std::vector<std::pair<TuneKey, TunedBlocks>> out;
  std::lock_guard<std::mutex> lock(cache_mutex());
  out.reserve(cache().size());
  for (const auto& [k, s] : cache()) out.emplace_back(k, s.blocks);
  return out;
}

std::mutex& tune_trial_mutex() {
  static std::mutex m;
  return m;
}

// ---------------------------------------------------------------------------
// JSON pinning. The format is a flat array of one-line objects so bench
// trajectories and CI diffs stay readable; the parser below accepts exactly
// what tune_cache_to_json emits (plus arbitrary whitespace) and rejects
// anything else loudly — a silently skipped entry would un-pin a config.
// ---------------------------------------------------------------------------

std::string tune_entries_to_json(
    const std::vector<std::pair<TuneKey, TunedBlocks>>& entries) {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const auto& [k, b] : entries) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << " {\"method\":\"" << method_name(k.method) << "\""
       << ",\"tiling\":\"" << tiling_name(k.tiling) << "\""
       << ",\"rank\":" << k.rank << ",\"isa\":\"" << isa_name(k.isa) << "\""
       << ",\"dtype\":\"" << dtype_name(k.dtype) << "\""
       << ",\"nx\":" << k.nx << ",\"ny\":" << k.ny << ",\"nz\":" << k.nz
       << ",\"radius\":" << k.radius << ",\"threads\":" << k.threads
       << ",\"steps\":" << k.steps << ",\"pin_bx\":" << k.pin_bx
       << ",\"pin_by\":" << k.pin_by << ",\"pin_bz\":" << k.pin_bz
       << ",\"pin_bt\":" << k.pin_bt
       << ",\"bc_x\":\"" << boundary_name(k.boundary.x) << "\""
       << ",\"bc_y\":\"" << boundary_name(k.boundary.y) << "\""
       << ",\"bc_z\":\"" << boundary_name(k.boundary.z) << "\""
       << ",\"bx\":" << b.bx
       << ",\"by\":" << b.by << ",\"bz\":" << b.bz << ",\"bt\":" << b.bt
       << "}";
  }
  os << "\n]\n";
  return os.str();
}

std::string tune_cache_to_json() {
  return tune_entries_to_json(tune_cache_snapshot());
}

namespace {

/// Minimal scanner for the flat objects emitted above.
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : s_(text) {}

  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }

  bool consume(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  bool at_end() {
    skip_ws();
    return i_ >= s_.size();
  }

  std::string string_value() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') out += s_[i_++];
    expect('"');
    return out;
  }

  index number_value() {
    skip_ws();
    const std::size_t start = i_;
    if (i_ < s_.size() && (s_[i_] == '-' || s_[i_] == '+')) ++i_;
    const std::size_t digits = i_;
    while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_])))
      ++i_;
    if (i_ == digits) fail("expected a number");  // also catches a bare sign
    try {
      return static_cast<index>(std::stoll(s_.substr(start, i_ - start)));
    } catch (const std::out_of_range&) {
      fail("number out of range");  // keep the invalid_argument contract
    }
  }

  [[noreturn]] void fail(const std::string& what) {
    throw std::invalid_argument("tune cache JSON: " + what + " at offset " +
                                std::to_string(i_));
  }

 private:
  const std::string& s_;
  std::size_t i_ = 0;
};

}  // namespace

std::vector<std::pair<TuneKey, TunedBlocks>> tune_entries_from_json(
    const std::string& json) {
  JsonScanner sc(json);
  sc.expect('[');
  // Parse the WHOLE document before touching the cache: a malformed later
  // entry must not leave earlier entries half-merged (all-or-nothing, per
  // the header contract).
  std::vector<std::pair<TuneKey, TunedBlocks>> parsed;
  // Every field of the key and the blocks must be present exactly: a
  // partial entry would merge under a default-initialized key that no real
  // plan ever looks up — the config would be silently un-pinned. Exception:
  // the boundary fields (bc_x/bc_y/bc_z) may be absent and default to
  // kDirichlet — caches exported before the boundary axis existed were
  // tuned under exactly those semantics and must stay importable.
  static constexpr const char* kFields[] = {
      "method", "tiling",  "rank",  "isa",    "dtype",  "nx",     "ny",
      "nz",     "radius",  "threads", "steps", "pin_bx", "pin_by", "pin_bz",
      "pin_bt", "bc_x",    "bc_y",  "bc_z",   "bx",     "by",     "bz",
      "bt"};
  constexpr unsigned kNumFields = sizeof(kFields) / sizeof(*kFields);
  auto field_bit = [&](const std::string& name) -> unsigned {
    for (unsigned i = 0; i < kNumFields; ++i)
      if (name == kFields[i]) return 1u << i;
    return 0;
  };
  const unsigned optional_fields =
      field_bit("bc_x") | field_bit("bc_y") | field_bit("bc_z");
  const unsigned required_fields = ((1u << kNumFields) - 1) & ~optional_fields;
  if (!sc.consume(']')) {
    do {
      sc.expect('{');
      TuneKey k;
      TunedBlocks b;
      unsigned seen = 0;
      bool more = !sc.consume('}');
      while (more) {
        const std::string field = sc.string_value();
        seen |= field_bit(field);
        sc.expect(':');
        if (field == "method") {
          auto m = method_from_name(sc.string_value());
          if (!m) sc.fail("unknown method name");
          k.method = *m;
        } else if (field == "tiling") {
          auto t = tiling_from_name(sc.string_value());
          if (!t) sc.fail("unknown tiling name");
          k.tiling = *t;
        } else if (field == "isa") {
          auto i = isa_from_name(sc.string_value());
          if (!i) sc.fail("unknown isa name");
          k.isa = *i;
        } else if (field == "dtype") {
          auto d = dtype_from_name(sc.string_value());
          if (!d) sc.fail("unknown dtype name");
          k.dtype = *d;
        } else if (field == "rank") {
          k.rank = static_cast<int>(sc.number_value());
        } else if (field == "nx") {
          k.nx = sc.number_value();
        } else if (field == "ny") {
          k.ny = sc.number_value();
        } else if (field == "nz") {
          k.nz = sc.number_value();
        } else if (field == "radius") {
          k.radius = static_cast<int>(sc.number_value());
        } else if (field == "threads") {
          k.threads = static_cast<int>(sc.number_value());
        } else if (field == "steps") {
          k.steps = sc.number_value();
        } else if (field == "pin_bx") {
          k.pin_bx = sc.number_value();
        } else if (field == "pin_by") {
          k.pin_by = sc.number_value();
        } else if (field == "pin_bz") {
          k.pin_bz = sc.number_value();
        } else if (field == "pin_bt") {
          k.pin_bt = sc.number_value();
        } else if (field == "bc_x") {
          auto b0 = boundary_from_name(sc.string_value());
          if (!b0) sc.fail("unknown boundary name");
          k.boundary.x = *b0;
        } else if (field == "bc_y") {
          auto b0 = boundary_from_name(sc.string_value());
          if (!b0) sc.fail("unknown boundary name");
          k.boundary.y = *b0;
        } else if (field == "bc_z") {
          auto b0 = boundary_from_name(sc.string_value());
          if (!b0) sc.fail("unknown boundary name");
          k.boundary.z = *b0;
        } else if (field == "bx") {
          b.bx = sc.number_value();
        } else if (field == "by") {
          b.by = sc.number_value();
        } else if (field == "bz") {
          b.bz = sc.number_value();
        } else if (field == "bt") {
          b.bt = sc.number_value();
        } else {
          sc.fail("unknown field \"" + field + "\"");
        }
        if (sc.consume('}')) break;
        sc.expect(',');
      }
      if ((seen & required_fields) != required_fields)
        sc.fail("entry is missing required fields");
      parsed.emplace_back(k, b);
    } while (sc.consume(','));
    sc.expect(']');
  }
  if (!sc.at_end()) sc.fail("trailing content");
  return parsed;
}

std::size_t tune_cache_from_json(const std::string& json) {
  const auto parsed = tune_entries_from_json(json);
  for (const auto& [k, b] : parsed) tune_cache_store(k, b);
  return parsed.size();
}

bool tune_cache_export_json(const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << tune_cache_to_json();
  return static_cast<bool>(f);
}

std::size_t tune_cache_import_json(const std::string& path) {
  std::ifstream f(path);
  if (!f)
    throw std::invalid_argument("tune cache JSON: cannot read " + path);
  std::ostringstream os;
  os << f.rdbuf();
  return tune_cache_from_json(os.str());
}

// ---------------------------------------------------------------------------
// Candidate generation.
// ---------------------------------------------------------------------------

namespace {

void push_unique(std::vector<index>& v, index x) {
  if (x > 0 && std::find(v.begin(), v.end(), x) == v.end()) v.push_back(x);
}

void push_unique(std::vector<TunedBlocks>& v, const TunedBlocks& b) {
  if (std::find(v.begin(), v.end(), b) == v.end()) v.push_back(b);
}

}  // namespace

index tune_trial_steps(index points, index bt, index steps) {
  // ~2^26 point-updates per trial keeps one candidate in the tens of
  // milliseconds even at memory bandwidth; small grids instead run enough
  // steps (two full time blocks) to see the temporal-blocking effect.
  constexpr index kBudget = index{1} << 26;
  const index want = std::max<index>(2, 2 * std::max<index>(bt, 1));
  const index cap = std::max<index>(2, kBudget / std::max<index>(points, 1));
  index t = std::min(want, cap);
  if (steps > 0) t = std::min(t, steps);
  return std::max<index>(1, t);
}

std::vector<TunedBlocks> tune_candidates(int rank, index nx, index ny,
                                         index nz, int radius, Tiling tiling,
                                         index steps, const Options& user) {
  std::vector<TunedBlocks> out;
  // Candidate 0: the fixed-heuristic default (exactly what the user set;
  // unset fields resolve to plan.cpp's defaults). Tuning can only improve
  // on it — a tie keeps the default.
  out.push_back({user.bx, user.by, user.bz, user.bt});
  if (tiling == Tiling::kNone) return out;

  const auto& cpu = cpu_info();
  const index elem_size = dtype_size(user.dtype);
  const index l1e = cache_fit_elems(cpu.l1_bytes, elem_size, 0.5);
  const index l2e = cache_fit_elems(cpu.l2_bytes, elem_size, 0.5);

  // Temporal block candidates: a bt beyond 2x the run length cannot help
  // (tau clamps to the remaining units).
  std::vector<index> bts;
  if (user.bt > 0) {
    bts.push_back(user.bt);
  } else {
    for (index bt : {index{2}, index{4}, index{8}, index{32}, index{128}}) {
      if (steps > 0 && bt > 2 * steps) continue;
      push_unique(bts, bt);
    }
    if (tiling == Tiling::kSplit) push_unique(bts, 1);
    if (bts.empty()) bts.push_back(1);
  }

  if (tiling == Tiling::kSplit) {
    // Split tiling blocks exactly one axis; the driver clamps tau to keep
    // every candidate legal. Seed the axis block from the cache ladder.
    std::vector<index> blks;
    const index axis_n = rank == 1 ? nx : rank == 2 ? ny : nz;
    const index axis_block_user = rank == 1   ? user.bx
                                  : rank == 2 ? (user.by ? user.by : user.bx)
                                              : (user.bz ? user.bz : user.bx);
    if (axis_block_user > 0) {
      blks.push_back(axis_block_user);
    } else if (rank == 1) {
      for (index b : {l1e, l2e, nx}) push_unique(blks, std::min(b, nx));
    } else {
      const index rows_per_l2 = std::max<index>(1, l2e / std::max<index>(nx, 1));
      for (index b : {rows_per_l2, axis_n}) push_unique(blks, std::min(b, axis_n));
    }
    for (index bt : bts)
      for (index blk : blks) {
        TunedBlocks b{};
        b.bt = bt;
        if (rank == 1) b.bx = blk;
        else if (rank == 2) b.by = blk;
        else b.bz = blk;
        push_unique(out, b);
      }
    return out;
  }

  // Tessellate. Legality: every multi-tile axis needs block >= 2*slope*tau
  // (tess_min_block).

  std::vector<index> bxs;
  if (user.bx > 0) {
    bxs.push_back(user.bx);
  } else if (rank == 1) {
    for (index b : {l1e, l2e, kDefaultBxTarget, nx})
      push_unique(bxs, std::min(b, nx));
  } else {
    bxs.push_back(0);      // heuristic default (min(nx, ~4096))
    push_unique(bxs, nx);  // one tile in x
  }

  // y/z: the user's block, or resolve's cache-fit default (0) and the
  // full-extent one tile.
  std::vector<index> bys{user.by}, bzs{user.bz};
  if (rank >= 2 && user.by <= 0) bys.push_back(ny);
  if (rank >= 3 && user.bz <= 0) bzs.push_back(nz);

  for (index bt : bts) {
    const index mb = tess_min_block(radius, bt);
    for (index bx : bxs)
      for (index by : bys)
        for (index bz : bzs) {
          TunedBlocks b{bx, by, bz, bt};
          // Legalize: a blocked (multi-tile) axis must respect the bound;
          // clamping to the full extent collapses it to one tile, which is
          // always legal.
          auto legal_axis = [&](index blk, index n) {
            if (blk <= 0) return blk;  // resolve picks the default
            index v = std::min(blk, n);
            if (v < n && v < mb) v = std::min(n, mb);
            return v;
          };
          b.bx = legal_axis(b.bx, nx);
          if (rank >= 2) b.by = legal_axis(b.by, ny);
          if (rank >= 3) b.bz = legal_axis(b.bz, nz);
          push_unique(out, b);
        }
  }
  return out;
}

}  // namespace tsv
