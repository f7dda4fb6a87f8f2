#pragma once
// Shared pieces of the tsvbench binary: one clock, seeded inputs, grids of
// any rank and dtype, output digests and oracles, statistics, the span
// recorder and the result record every workload fills in.
//
// The benchmark reaches the library only through the public API that stays
// stable across refactors: make_plan, TypedPlan::execute, Plan::execute,
// fill_ghosts, and Scheduler with SchedulerConfig/SchedulerStats.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "tsv/tsv.hpp"

namespace tsvbench {

using tsv::index;

/// Seconds on the steady clock since process start. Every timing and every
/// span uses this one time base.
double now_s();

/// Peak resident set size of this process in MB (VmHWM).
double peak_rss_mb();

/// Load threads the benchmark may use: min(4, logical cores).
int max_threads();

// ---------------------------------------------------------------------------
// Seeded randomness.
// ---------------------------------------------------------------------------

std::uint64_t hash64(std::uint64_t a, std::uint64_t b);

/// splitmix64 stream: the same seed gives the same sequence everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  double exponential(double mean);
  bool chance(double p) { return uniform() < p; }

 private:
  std::uint64_t s_;
};

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Linear-interpolation quantile (numpy's default); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double geomean(const std::vector<double>& v);

// ---------------------------------------------------------------------------
// Grids and requests.
// ---------------------------------------------------------------------------

using AnyGrid =
    std::variant<tsv::Grid1D<double>, tsv::Grid2D<double>, tsv::Grid3D<double>,
                 tsv::Grid1D<float>, tsv::Grid2D<float>, tsv::Grid3D<float>>;

/// The grid type of rank D and element type T.
template <int D, typename T>
struct GridOf;
template <typename T>
struct GridOf<1, T> {
  using type = tsv::Grid1D<T>;
};
template <typename T>
struct GridOf<2, T> {
  using type = tsv::Grid2D<T>;
};
template <typename T>
struct GridOf<3, T> {
  using type = tsv::Grid3D<T>;
};

/// One stencil request: kind, element type, grid shape and plan options
/// (options.dtype always equals dtype).
struct Config {
  tsv::StencilKind kind = tsv::StencilKind::k2d5p;
  tsv::Dtype dtype = tsv::Dtype::kF64;
  tsv::Shape shape;
  tsv::Options opts;

  index points() const { return shape.nx * shape.ny * shape.nz; }
  double updates() const {
    return static_cast<double>(points()) * static_cast<double>(opts.steps);
  }
  std::string name() const;  ///< "2d9p.f64"
};

Config make_config(tsv::StencilKind kind, tsv::Dtype dtype,
                   const tsv::Shape& shape, tsv::Options opts);

/// The stencil weights every workload runs: Table-1 defaults, except 3d27p,
/// whose default weights sum to 0.65; it is scaled to sum 1 so that long
/// runs neither decay toward subnormals nor leave the input's value range.
tsv::StencilSpec spec_of(tsv::StencilKind kind);
int flops_per_point(tsv::StencilKind kind);

/// Zero-initialised grid; FirstTouch::kNone leaves first touch to the fill.
AnyGrid make_grid(const tsv::Shape& s, tsv::Dtype d,
                  tsv::FirstTouch ft = tsv::FirstTouch::kSerial);
/// A batch-class Scheduler request on @p g with no deadline or timeout.
tsv::Scheduler::Request make_request(AnyGrid& g, const tsv::StencilSpec& spec,
                                     const tsv::Options& o);

/// Value of global cell (x, y, z) of input @p seed: 0.5 + 0.5 * u with u a
/// hash of the seed and the cell, so any cell can be regenerated alone.
double seeded_value(std::uint64_t seed, index x, index y, index z);
/// Fills interior and halo with seeded_value, rows spread over an OpenMP
/// team of @p threads.
void fill_seeded(AnyGrid& g, std::uint64_t seed, int threads = 1);
/// Copies interior and halo of a same-shaped grid without allocating.
void copy_grid(AnyGrid& dst, const AnyGrid& src);
/// FNV-1a over the bit patterns of a fixed stride of interior cells plus
/// the last one: equal digests are the served-equals-direct check.
std::uint64_t digest(const AnyGrid& g);
/// True when every interior value lies in [lo, hi].
bool values_within(const AnyGrid& g, double lo, double hi);
/// Executes a rank-erased plan on whichever grid the variant holds.
void execute(const tsv::Plan& plan, AnyGrid& g);

/// Largest |out - reference| over the interior, where reference is
/// reference_run of @p c's stencil from @p input for c.opts.steps steps
/// under c.opts.boundary.
double reference_error(const Config& c, const AnyGrid& input,
                       const AnyGrid& out);
/// check.hpp's accuracy_tolerance for c's dtype and steps.
double tolerance(const Config& c);

// ---------------------------------------------------------------------------
// Result record and spans.
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> info;
  std::vector<std::string> wrong;  ///< failed correctness checks
  std::uint64_t attempted = 0;     ///< operations the workload attempted
  std::uint64_t failed = 0;        ///< operations that failed or were wrong

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& key, const std::string& value) {
    info[key] = value;
  }
  void note(const std::string& key, double value);
  /// Records a correctness check; a failed one makes the run incorrect.
  bool check(bool ok, const std::string& what);
};

/// One span: a call into a layer, or a scheduler phase of a request.
struct Span {
  const char* name;
  double start, end;
  std::int64_t parent;  ///< span id, -1 for a root
  std::int64_t rid;     ///< request id, -1 when not part of a request
};

/// In-memory span recorder; written out once at exit. Thread-safe. When
/// disabled, add() records nothing and returns -1.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  std::int64_t add(const char* name, double start, double end,
                   std::int64_t parent = -1, std::int64_t rid = -1);
  std::int64_t new_rid();
  void write(const std::string& path) const;

 private:
  bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::int64_t next_rid_ = 0;
};

/// What the benchmark saw of one Scheduler request, for matching against
/// the scheduler's own TraceSpans.
struct Submitted {
  double call_start = 0, call_end = 0;  ///< around Scheduler::submit
  std::uint64_t dispatch_seq = 0;
  bool coalesced = false;
  std::int64_t root = -1;  ///< the request's root span
  std::int64_t rid = -1;
};

/// Per-request phase samples (ms) taken from SchedulerStats::traces.
struct PhaseSamples {
  std::vector<double> queue_ms, gang_wait_ms, service_ms;
};

/// Converts the scheduler's TraceSpans to the benchmark clock and adds
/// scheduler.queue / executor.gang_wait / executor.service children under
/// each matched request's root span. The scheduler's epoch is bracketed by
/// [ctor_start, ctor_end] and narrowed by every submit call, which must
/// contain its request's admission. Returns the phase samples of all
/// traced requests.
PhaseSamples attach_scheduler_spans(Tracer& tracer,
                                    const std::vector<Submitted>& sent,
                                    const tsv::SchedulerStats& stats,
                                    double ctor_start, double ctor_end);

/// Sets the cache, workspace, executor and scheduler counter metrics from
/// @p stats, and the phase percentiles from @p phases.
void scheduler_metrics(Result& r, const tsv::SchedulerStats& stats,
                       const PhaseSamples& phases);

// ---------------------------------------------------------------------------
// Workloads and layer probes.
// ---------------------------------------------------------------------------

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// The request a workload's traced run sends down the layer ladder, with
/// the serving configuration the workload uses.
struct LadderSpec {
  Config config;
  tsv::SchedulerConfig sched;
  int reps = 5;
};

/// Runs one workload: fills every end-to-end metric, correctness checks and
/// counters into @p r, spans into @p tracer. Returns the workload's ladder
/// request. When traced, serving workloads also set the scheduler metrics.
LadderSpec run_workload(const RunArgs& args, Result& r, Tracer& tracer);

/// The twelve sweep_l2 configurations (six kinds x two dtypes, untiled
/// transpose, one thread, two buffers within a 2 MB L2).
std::vector<Config> sweep_configs();

/// Machine ceilings: STREAM triad bandwidth and FMA peak.
struct Machine {
  double triad_gbs = 0;
  double fma_gflops_1t = 0;  ///< f64, one thread
  double fma_gflops = 0;     ///< f64, max_threads() threads
};
Machine probe_machine(Result& r);

/// The traced run's layer measurements: kernel suite, layer ladder at the
/// workload's request, two-size fits, tiling and ghost-fill probes. Sets
/// the scheduler metrics from the ladder when @p set_sched is true.
void probe_layers(const LadderSpec& spec, const Machine& m, std::uint64_t seed,
                  bool set_sched, Result& r, Tracer& tracer);

}  // namespace tsvbench
