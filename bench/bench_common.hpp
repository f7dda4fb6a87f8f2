#pragma once
// Shared benchmark harness: size ladders derived from the detected cache
// hierarchy, timing/GFLOP/s helpers, table printing and optional CSV/JSON
// output.
//
// Conventions shared by every bench binary:
//   --paper-scale   use the paper's Table 1 problem sizes and step counts
//   --long          10x the time steps (paper's T=10000 variants)
//   --smoke         tiny sizes + step counts (CI artifact runs: seconds, not
//                   minutes; every enabled combination still executes)
//   --csv FILE      additionally append rows as CSV
//   --json FILE     write every measurement as a JSON array (machine-readable
//                   perf trajectory; uploaded as the bench-smoke artifact)
//   --dtype D       element type sweep: f64 (default), f32, or both
//   --threads N     cap the thread count (default: all logical cores)
//   --tune MODE     block autotuning: off (default), cached, or full; every
//                   --json record carries threads/tune/resolved blocks so
//                   BENCH_*.json trajectories are self-describing
//   --nx N          replace the cache ladder with one custom rung of N
//                   elements (A/B runs at a pinned size)
//   --stream MODE   non-temporal store policy: auto (default), off, on
//   --boundary B    boundary condition on every axis: zero (default — the
//                   paper's implicit zero halo, so committed baseline
//                   numbers stay comparable), dirichlet, periodic, neumann;
//                   every fig7/table4 --json record carries the value

#include <omp.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "tsv/tsv.hpp"

namespace bench {

using tsv::index;

/// Process-wide streaming-store policy for every run_problem() plan, set by
/// Config::parse from --stream. A global (not another positional argument)
/// because every bench body already threads 8 parameters into run_problem
/// and the policy is a harness-wide A/B switch, never per-measurement.
inline tsv::StreamMode g_stream = tsv::StreamMode::kAuto;

/// Process-wide boundary condition for every run_problem() plan (same
/// rationale as g_stream). The bench default is kZero — the paper's
/// implicit zero halo — NOT the library's source-compatible kDirichlet
/// default, so the committed bench/baseline.json numbers stay comparable
/// and every record's "boundary" field is explicit.
inline tsv::BoundarySpec g_boundary =
    tsv::BoundarySpec::uniform(tsv::Boundary::kZero);

/// The uniform boundary name for JSON records ("zero", "periodic", ...).
inline const char* boundary_field_name() {
  return tsv::boundary_name(g_boundary.x);
}

struct Config {
  bool paper_scale = false;
  bool long_t = false;
  bool smoke = false;
  std::string csv_path;
  std::string json_path;
  std::vector<tsv::Dtype> dtypes = {tsv::Dtype::kF64};
  tsv::Isa isa = tsv::Isa::kAuto;  ///< pin one ISA (--isa avx2); kAuto = best
  int threads = 0;
  tsv::Tune tune = tsv::Tune::kOff;  ///< plan-time block autotuning
  index nx_override = 0;             ///< --nx: one custom ladder rung
  tsv::StreamMode stream = tsv::StreamMode::kAuto;
  tsv::BoundarySpec boundary =
      tsv::BoundarySpec::uniform(tsv::Boundary::kZero);

  static Config parse(int argc, char** argv) {
    Config c;
    c.threads = static_cast<int>(tsv::cpu_info().logical_cores);
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--paper-scale")) c.paper_scale = true;
      else if (!std::strcmp(argv[i], "--long")) c.long_t = true;
      else if (!std::strcmp(argv[i], "--smoke")) c.smoke = true;
      else if (!std::strcmp(argv[i], "--csv") && i + 1 < argc)
        c.csv_path = argv[++i];
      else if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
        c.json_path = argv[++i];
      else if (!std::strcmp(argv[i], "--dtype") && i + 1 < argc) {
        const char* d = argv[++i];
        if (!std::strcmp(d, "both")) {
          c.dtypes = {tsv::Dtype::kF64, tsv::Dtype::kF32};
        } else if (auto parsed = tsv::dtype_from_name(d)) {
          c.dtypes = {*parsed};
        } else {
          std::fprintf(stderr, "unknown --dtype %s (want f64|f32|both)\n", d);
          std::exit(2);
        }
      } else if (!std::strcmp(argv[i], "--isa") && i + 1 < argc) {
        const char* a = argv[++i];
        if (auto parsed = tsv::isa_from_name(a)) {
          c.isa = *parsed;
        } else {
          std::fprintf(stderr, "unknown --isa %s\n", a);
          std::exit(2);
        }
      } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
        c.threads = std::atoi(argv[++i]);
      } else if (!std::strcmp(argv[i], "--tune") && i + 1 < argc) {
        const char* t = argv[++i];
        if (auto parsed = tsv::tune_from_name(t)) {
          c.tune = *parsed;
        } else {
          std::fprintf(stderr, "unknown --tune %s (want off|cached|full)\n",
                       t);
          std::exit(2);
        }
      } else if (!std::strcmp(argv[i], "--nx") && i + 1 < argc) {
        c.nx_override = std::atoll(argv[++i]);
      } else if (!std::strcmp(argv[i], "--stream") && i + 1 < argc) {
        const char* m = argv[++i];
        if (!std::strcmp(m, "auto")) c.stream = tsv::StreamMode::kAuto;
        else if (!std::strcmp(m, "off")) c.stream = tsv::StreamMode::kOff;
        else if (!std::strcmp(m, "on")) c.stream = tsv::StreamMode::kOn;
        else {
          std::fprintf(stderr, "unknown --stream %s (want auto|off|on)\n", m);
          std::exit(2);
        }
      } else if (!std::strcmp(argv[i], "--boundary") && i + 1 < argc) {
        const char* b = argv[++i];
        if (auto parsed = tsv::boundary_from_name(b)) {
          c.boundary = tsv::BoundarySpec::uniform(*parsed);
        } else {
          std::fprintf(stderr,
                       "unknown --boundary %s "
                       "(want zero|dirichlet|periodic|neumann)\n",
                       b);
          std::exit(2);
        }
      } else if (!std::strcmp(argv[i], "--help")) {
        std::printf(
            "flags: --paper-scale --long --smoke --csv FILE --json FILE "
            "--dtype f64|f32|both --isa auto|scalar|avx2|avx512 --threads N "
            "--tune off|cached|full --nx N --stream auto|off|on "
            "--boundary zero|dirichlet|periodic|neumann\n");
        std::exit(0);
      }
    }
    g_stream = c.stream;      // picked up by every run_problem() plan
    g_boundary = c.boundary;  // likewise
    return c;
  }
};

/// Appends one CSV line (creates the file with a header if needed).
class CsvSink {
 public:
  CsvSink(const std::string& path, const std::string& header) {
    if (path.empty()) return;
    const bool fresh = std::fopen(path.c_str(), "r") == nullptr;
    f_ = std::fopen(path.c_str(), "a");
    if (f_ != nullptr && fresh) std::fprintf(f_, "%s\n", header.c_str());
  }
  ~CsvSink() {
    if (f_ != nullptr) std::fclose(f_);
  }
  template <typename... Args>
  void row(const char* fmt, Args... args) {
    if (f_ != nullptr) {
      std::fprintf(f_, fmt, args...);
      std::fprintf(f_, "\n");
    }
  }

 private:
  std::FILE* f_ = nullptr;
};

/// Collects printf-formatted JSON objects and writes them as one JSON array
/// at destruction. Empty path = disabled. The records are flat key/value
/// objects so downstream tooling (jq, pandas) can diff runs without a schema.
class JsonSink {
 public:
  explicit JsonSink(const std::string& path) : path_(path) {}

  ~JsonSink() {
    if (path_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "json: cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(f, "[");
    for (std::size_t i = 0; i < records_.size(); ++i)
      std::fprintf(f, "%s%s", i ? ",\n " : "\n ", records_[i].c_str());
    std::fprintf(f, "\n]\n");
    std::fclose(f);
  }

  /// record("{\"bench\":\"fig7\",...}") — caller supplies a complete object.
  template <typename... Args>
  void record(const char* fmt, Args... args) {
    if (path_.empty()) return;
    // Two-pass format: a truncated record would corrupt the JSON array far
    // from the cause (the CI jq merge), so size exactly.
    const int n = std::snprintf(nullptr, 0, fmt, args...);
    if (n < 0) {
      std::fprintf(stderr, "json: bad record format %s\n", fmt);
      std::abort();
    }
    std::string buf(static_cast<std::size_t>(n) + 1, '\0');
    std::snprintf(buf.data(), buf.size(), fmt, args...);
    buf.resize(static_cast<std::size_t>(n));
    records_.push_back(std::move(buf));
  }

  bool enabled() const { return !path_.empty(); }

 private:
  std::string path_;
  std::vector<std::string> records_;
};

/// One rung of the working-set ladder (paper Figs. 7-8 x-axis).
struct SizeRung {
  const char* level;  ///< "L1", "L2", "L3", "Mem"
  index nx;           ///< 1D interior elements (multiple of 256)
};

/// Sizes whose two-buffer working set lands in each storage level for
/// elements of @p dtype (half the bytes per element means twice the rung in
/// elements — the levels must stay honest for the f32 sweeps). Rounded to
/// multiples of 256 so every layout rule accepts them at every compiled
/// width and dtype (float AVX-512 needs nx % 16^2 == 0).
inline std::vector<SizeRung> storage_ladder(bool smoke = false,
                                            tsv::Dtype dtype = tsv::Dtype::kF64) {
  if (smoke)  // one tiny rung: every combination executes in milliseconds
    return {{"smoke", 4096}};
  const auto& cpu = tsv::cpu_info();
  const index esz = tsv::dtype_size(dtype);
  auto fit = [esz](index cap_bytes, double frac) {
    // two buffers of nx elements; rounded down to a multiple of 256
    return tsv::round_up(
               static_cast<index>(cap_bytes * frac / (2 * esz)) - 255, 256);
  };
  return {
      {"L1", fit(cpu.l1_bytes, 0.5)},
      {"L2", fit(cpu.l2_bytes, 0.5)},
      {"L3", fit(cpu.l3_bytes, 0.4)},
      {"Mem", tsv::round_up(4 * cpu.l3_bytes / esz, 256)},
  };
}

/// Times one execution; returns GFLOP/s. Plan construction (registry
/// validation, ISA/block resolution, kernel binding — and autotuning trials
/// when Options::tune is on) happens once, outside the measured region —
/// the timer sees only Plan::execute. @p cfg_out (optional) receives the
/// fully resolved configuration so callers can report the blocks that
/// actually ran.
template <typename Grid, typename S>
double time_run(Grid& g, const S& s, const tsv::Options& o, index points,
                tsv::ResolvedOptions* cfg_out = nullptr) {
  const auto plan = tsv::make_plan(tsv::shape_of(g), s, o);
  if (cfg_out != nullptr) *cfg_out = plan.config();
  tsv::Timer t;
  plan.execute(g);
  const double sec = t.seconds();
  return 1e-9 * static_cast<double>(points) *
         static_cast<double>(o.steps) *
         static_cast<double>(s.flops_per_point) / sec;
}

/// The harness-config fields every --json record must carry (threads, tune
/// mode, resolved blocks): formatted once here so the benches stay in sync.
inline std::string json_cfg_fields(const tsv::ResolvedOptions& r) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                ",\"threads\":%d,\"tune\":\"%s\",\"bx\":%td,\"by\":%td,"
                "\"bz\":%td,\"bt\":%td,\"streaming\":%s",
                r.threads, tsv::tune_name(r.tune), r.bx, r.by, r.bz, r.bt,
                r.streaming ? "true" : "false");
  return buf;
}

/// Grid-point updates per second for a GFLOP/s figure of the same run — the
/// dtype-fair metric (a float and a double run do the same updates/s work at
/// equal GFLOP/s, but the float run serves 2x the lanes per vector).
inline double points_per_sec(double gflops, index flops_per_point) {
  return gflops * 1e9 / static_cast<double>(flops_per_point);
}

inline void print_header(const char* title) {
  std::printf("## %s\n", title);
  std::printf("machine: %td cores, ISA %s, caches L1=%tdK L2=%tdK L3=%tdM\n\n",
              tsv::cpu_info().logical_cores, tsv::isa_name(tsv::best_isa()),
              tsv::cpu_info().l1_bytes / 1024, tsv::cpu_info().l2_bytes / 1024,
              tsv::cpu_info().l3_bytes / (1024 * 1024));
}

/// Pins threads deterministically; call first in every main().
inline void setup_omp() {
  setenv("OMP_PROC_BIND", "close", 0);
  setenv("OMP_PLACES", "cores", 0);
  setenv("OMP_DYNAMIC", "false", 0);
}

namespace detail {

template <typename T>
double run_problem_t(const tsv::Problem& p, const tsv::Options& o,
                     tsv::ResolvedOptions* cfg_out) {
  auto fill1 = [](index x) {
    return T(0.3 + 1e-4 * static_cast<double>(x % 97));
  };
  auto fill2 = [](index x, index y) {
    return T(0.3 + 1e-4 * static_cast<double>((x + 3 * y) % 97));
  };
  auto fill3 = [](index x, index y, index z) {
    return T(0.3 + 1e-4 * static_cast<double>((x + 3 * y + 7 * z) % 97));
  };
  switch (p.kind) {
    case tsv::StencilKind::k1d3p: {
      tsv::Grid1D<T> g(p.nx, 1);
      g.fill(fill1);
      return time_run(g, tsv::make_1d3p<T>(1.0 / 3.0), o, p.nx, cfg_out);
    }
    case tsv::StencilKind::k1d5p: {
      tsv::Grid1D<T> g(p.nx, 2);
      g.fill(fill1);
      return time_run(g, tsv::make_1d5p<T>(), o, p.nx, cfg_out);
    }
    case tsv::StencilKind::k2d5p: {
      tsv::Grid2D<T> g(p.nx, p.ny, 1);
      g.fill(fill2);
      return time_run(g, tsv::make_2d5p<T>(), o, p.nx * p.ny, cfg_out);
    }
    case tsv::StencilKind::k2d9p: {
      tsv::Grid2D<T> g(p.nx, p.ny, 1);
      g.fill(fill2);
      return time_run(g, tsv::make_2d9p<T>(), o, p.nx * p.ny, cfg_out);
    }
    case tsv::StencilKind::k3d7p: {
      tsv::Grid3D<T> g(p.nx, p.ny, p.nz, 1);
      g.fill(fill3);
      return time_run(g, tsv::make_3d7p<T>(), o, p.nx * p.ny * p.nz, cfg_out);
    }
    case tsv::StencilKind::k3d27p: {
      tsv::Grid3D<T> g(p.nx, p.ny, p.nz, 1);
      g.fill(fill3);
      return time_run(g, tsv::make_3d27p<T>(), o, p.nx * p.ny * p.nz, cfg_out);
    }
  }
  return 0;
}

}  // namespace detail

/// Runs one Table-1 problem with the given method/tiling/ISA/dtype/thread
/// count and returns GFLOP/s. steps_override > 0 replaces the preset steps.
inline double run_problem(const tsv::Problem& p, tsv::Method m, tsv::Tiling t,
                          tsv::Isa isa, int threads, index steps_override = 0,
                          tsv::Dtype dtype = tsv::Dtype::kF64,
                          tsv::Tune tune = tsv::Tune::kOff,
                          tsv::ResolvedOptions* cfg_out = nullptr) {
  tsv::Options o;
  o.method = m;
  o.tiling = t;
  o.isa = isa;
  o.dtype = dtype;
  o.steps = steps_override > 0 ? steps_override : p.steps;
  o.bx = p.bx;
  o.by = p.by;
  o.bz = p.bz;
  o.bt = p.bt;
  o.threads = threads;
  o.tune = tune;
  o.stream = g_stream;
  o.boundary = g_boundary;
  return dtype == tsv::Dtype::kF32
             ? detail::run_problem_t<float>(p, o, cfg_out)
             : detail::run_problem_t<double>(p, o, cfg_out);
}

/// Best-of-N wrapper for the noisy multicore measurements: this machine is
/// virtualized, so single-shot timings vary by >2x; the maximum over a few
/// repetitions is the standard robust estimator for throughput.
inline double run_problem_best(const tsv::Problem& p, tsv::Method m,
                               tsv::Tiling t, tsv::Isa isa, int threads,
                               int reps = 3, index steps_override = 0,
                               tsv::Dtype dtype = tsv::Dtype::kF64,
                               tsv::Tune tune = tsv::Tune::kOff,
                               tsv::ResolvedOptions* cfg_out = nullptr) {
  double best = 0;
  tsv::ResolvedOptions best_cfg;
  for (int i = 0; i < reps; ++i) {
    tsv::ResolvedOptions rc;
    const double gf =
        run_problem(p, m, t, isa, threads, steps_override, dtype, tune, &rc);
    // Keep the config of the rep that produced the best number: under
    // Tune::kFull each rep re-tunes and may pick different blocks, and the
    // JSON record must attribute the reported gflops to the blocks that
    // actually ran it.
    if (gf >= best || i == 0) best_cfg = rc;
    best = std::max(best, gf);
  }
  if (cfg_out != nullptr) *cfg_out = best_cfg;
  return best;
}

/// Shrinks a Table-1 problem to smoke-test scale: every (method, isa, dtype)
/// combination executes in milliseconds, block fields reset so the plan
/// resolves legal defaults at the tiny extents.
inline tsv::Problem smoke_problem(tsv::Problem p) {
  // Sizes and steps are the smallest that keep one measurement in the
  // hundreds-of-microseconds range: smoke timings feed the CI regression
  // gate, and a microsecond-scale measurement is all jitter. 8192 is a
  // multiple of 256, so every layout rule accepts it at every width/dtype.
  p.nx = p.ny > 1 ? 512 : 8192;
  if (p.ny > 1) p.ny = 32;
  if (p.nz > 1) p.nz = 8;
  p.steps = 16;
  p.bx = p.by = p.bz = p.bt = 0;
  return p;
}

/// Open-loop Poisson arrival offsets: seconds from t=0, strictly inside
/// [0, horizon_s), sorted. Implemented by inverse-CDF over raw mt19937_64
/// draws instead of std::exponential_distribution, whose algorithm the
/// standard leaves to the library — the committed baseline and the CI
/// runners must derive the SAME arrival counts from one seed regardless of
/// which standard library compiled the bench.
inline std::vector<double> poisson_arrivals(double rate_hz, double horizon_s,
                                            std::uint64_t seed) {
  std::vector<double> t;
  std::mt19937_64 rng(seed);
  double now = 0.0;
  for (;;) {
    const double u =
        static_cast<double>(rng() >> 11) * 0x1.0p-53;  // uniform [0, 1)
    now += -std::log1p(-u) / rate_hz;                  // exponential gap
    if (now >= horizon_s) break;
    t.push_back(now);
  }
  return t;
}

/// One mixed-workload request slot (figs. 10 and 12): an independent grid
/// advancing `steps` under kTranspose. Even ids are 1D (nx elements), odd
/// ids 2D (nx/64 x 32) — both W^2-conforming for every compiled width/dtype
/// when nx is a multiple of 4096. reset() refills with an id-dependent
/// pattern, so distinct ids are distinct INPUTS (no accidental coalescing)
/// and a reused slot is restored to a known pre-run state.
struct MixSlot {
  std::unique_ptr<tsv::Grid1D<double>> g1;
  std::unique_ptr<tsv::Grid2D<double>> g2;
  tsv::StencilSpec spec;
  tsv::Options o;
  tsv::index points = 0;

  void reset(int id, tsv::index nx, tsv::index steps) {
    o = {};
    o.method = tsv::Method::kTranspose;
    o.steps = steps;
    o.boundary = g_boundary;
    o.stream = g_stream;
    if (id % 2 == 0) {
      spec.kind = tsv::StencilKind::k1d3p;
      points = nx;
      if (!g1) g1 = std::make_unique<tsv::Grid1D<double>>(nx, 1);
      g1->fill([id](tsv::index x) {
        return 0.3 + 1e-4 * static_cast<double>((x + 13 * id) % 97);
      });
    } else {
      spec.kind = tsv::StencilKind::k2d5p;
      const tsv::index ny = 32;
      points = (nx / 64) * ny;
      if (!g2) g2 = std::make_unique<tsv::Grid2D<double>>(nx / 64, ny, 1);
      g2->fill([id](tsv::index x, tsv::index y) {
        return 0.3 + 1e-4 * static_cast<double>((x + 3 * y + 13 * id) % 97);
      });
    }
  }

  /// The grid of the LAST reset() — a slot reused across parities keeps
  /// both grids alive, so the spec (not grid presence) picks the one the
  /// current configuration targets.
  tsv::GridRef grid_ref() {
    return spec.kind == tsv::StencilKind::k1d3p ? tsv::GridRef{g1.get()}
                                                : tsv::GridRef{g2.get()};
  }
};

/// A Scheduler run as a plain batch pool of single-threaded gangs:
/// admission-order dispatch, no coalescing, and a queue deep enough for
/// @p batch requests — for benches that measure the gangs, not the
/// serving policy.
inline tsv::SchedulerConfig fifo_pool(int gangs, std::size_t batch = 0) {
  return {.executor = {.gangs = gangs, .threads_per_gang = 1},
          .queue_capacity = std::max<std::size_t>(batch, 1024),
          .policy = tsv::SchedPolicy::kFifo,
          .coalesce = false};
}

/// The multicore contenders of Figs. 8-9 (paper naming). The paper's
/// "Our (2 steps)" has no column: the tiled transpose-uj2 row runs Our's
/// tessellated steps (see METHODS.md), so it would time the same code.
struct Contender {
  const char* name;
  tsv::Method method;
  tsv::Tiling tiling;
};

inline constexpr int kContenders = 3;

inline const std::array<Contender, kContenders>& contenders() {
  static const std::array<Contender, kContenders> v = [] {
    std::array<Contender, kContenders> c = {{
        {"SDSL", tsv::Method::kDlt, tsv::Tiling::kSplit},
        {"Tessellation", tsv::Method::kAutoVec, tsv::Tiling::kTessellate},
        {"Our", tsv::Method::kTranspose, tsv::Tiling::kTessellate},
    }};
    // The paper naming is fixed, but every row must be backed by a registry
    // capability — catch drift between the benches and the library here.
    for (const Contender& k : c)
      if (tsv::find_capability(k.method, k.tiling) == nullptr) {
        std::fprintf(stderr, "contender %s (%s+%s) missing from registry\n",
                     k.name, tsv::method_name(k.method),
                     tsv::tiling_name(k.tiling));
        std::abort();
      }
    return c;
  }();
  return v;
}

}  // namespace bench
