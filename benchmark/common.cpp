#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <tuple>

#include "bench.hpp"

namespace tsvbench {

using tsv::Dtype;
using tsv::StencilKind;

namespace {

// 3d27p weights decay with Manhattan distance d as wc / (2d + 1) over
// 1 centre, 6 faces, 12 edges and 8 corners; this wc makes them sum to 1.
constexpr double kWc27 = 1.0 / (1.0 + 6.0 / 3.0 + 12.0 / 5.0 + 8.0 / 7.0);

/// splitmix64's output mix.
std::uint64_t splitmix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Calls f with the typed Table-1 stencil of @p kind in element type T,
/// carrying the weights spec_of() selects.
template <typename T, typename F>
void with_stencil(StencilKind kind, F&& f) {
  switch (kind) {
    case StencilKind::k1d3p: f(tsv::make_1d3p<T>()); break;
    case StencilKind::k1d5p: f(tsv::make_1d5p<T>()); break;
    case StencilKind::k2d5p: f(tsv::make_2d5p<T>()); break;
    case StencilKind::k2d9p: f(tsv::make_2d9p<T>()); break;
    case StencilKind::k3d7p: f(tsv::make_3d7p<T>()); break;
    case StencilKind::k3d27p: f(tsv::make_3d27p<T>(kWc27)); break;
  }
}

/// Calls f(row pointer, row length, y, z) for every extended row (halo
/// included) of @p g, const or not; the row pointer addresses x = -halo.
template <typename G, typename F>
void for_rows(G& g, F&& f) {
  constexpr int rank = std::decay_t<G>::kRank;
  const index h = g.halo();
  if constexpr (rank == 1) {
    f(g.x0() - h, g.nx() + 2 * h, index{0}, index{0});
  } else if constexpr (rank == 2) {
    for (index y = -h; y < g.ny() + h; ++y)
      f(g.row(y) - h, g.nx() + 2 * h, y, index{0});
  } else {
    for (index z = -h; z < g.nz() + h; ++z)
      for (index y = -h; y < g.ny() + h; ++y)
        f(g.row(y, z) - h, g.nx() + 2 * h, y, z);
  }
}

/// Interior cell (x, y, z) of any grid.
template <typename T>
T cell(const tsv::Grid1D<T>& g, index x, index, index) {
  return g.at(x);
}
template <typename T>
T cell(const tsv::Grid2D<T>& g, index x, index y, index) {
  return g.at(x, y);
}
template <typename T>
T cell(const tsv::Grid3D<T>& g, index x, index y, index z) {
  return g.at(x, y, z);
}

}  // namespace

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

int max_threads() {
  const int cores = static_cast<int>(tsv::cpu_info().logical_cores);
  return std::clamp(cores, 1, 4);
}

std::uint64_t hash64(std::uint64_t a, std::uint64_t b) {
  return splitmix64(a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull);
}

std::uint64_t Rng::next() { return splitmix64(s_ += 0x9e3779b97f4a7c15ull); }

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::exponential(double mean) {
  return -mean * std::log1p(-uniform());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= v.size() || frac == 0.0) return v[lo];
  // A failed request counts as infinite latency; inf - x must not become
  // NaN, so interpolating toward an infinite neighbour gives infinity.
  if (std::isinf(v[lo + 1])) return v[lo + 1];
  return v[lo] + (v[lo + 1] - v[lo]) * frac;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

std::string Config::name() const {
  return std::string(tsv::stencil_kind_name(kind)) + "." +
         tsv::dtype_name(dtype);
}

Config make_config(StencilKind kind, Dtype dtype, const tsv::Shape& shape,
                   tsv::Options opts) {
  opts.dtype = dtype;
  return {kind, dtype, shape, opts};
}

tsv::StencilSpec spec_of(StencilKind kind) {
  tsv::StencilSpec s;
  s.kind = kind;
  if (kind == StencilKind::k3d27p) s.coeffs = {kWc27};
  return s;
}

int flops_per_point(StencilKind kind) {
  int flops = 0;
  with_stencil<double>(kind, [&](const auto& s) {
    flops = static_cast<int>(s.flops_per_point);
  });
  return flops;
}

AnyGrid make_grid(const tsv::Shape& s, Dtype d, tsv::FirstTouch ft) {
  auto make = [&]<typename T>() -> AnyGrid {
    switch (s.rank) {
      case 1: return tsv::Grid1D<T>(s.nx, s.halo, ft);
      case 2: return tsv::Grid2D<T>(s.nx, s.ny, s.halo, ft);
      default: return tsv::Grid3D<T>(s.nx, s.ny, s.nz, s.halo, ft);
    }
  };
  return d == Dtype::kF32 ? make.template operator()<float>()
                          : make.template operator()<double>();
}

tsv::Scheduler::Request make_request(AnyGrid& g, const tsv::StencilSpec& spec,
                                     const tsv::Options& o) {
  tsv::Scheduler::Request req;
  req.grid = std::visit([](auto& x) -> tsv::Executor::GridRef { return &x; }, g);
  req.stencil = spec;
  req.options = o;
  return req;
}

double seeded_value(std::uint64_t seed, index x, index y, index z) {
  const std::uint64_t h =
      hash64(hash64(hash64(seed, static_cast<std::uint64_t>(x)),
                    static_cast<std::uint64_t>(y)),
             static_cast<std::uint64_t>(z));
  return 0.5 + 0.5 * (static_cast<double>(h >> 11) * 0x1.0p-53);
}

void fill_seeded(AnyGrid& any, std::uint64_t seed, int threads) {
  std::visit(
      [&](auto& g) {
        using T = typename std::decay_t<decltype(g)>::value_type;
        std::vector<std::tuple<T*, index, index, index>> rows;
        for_rows(g, [&](T* p, index n, index y, index z) {
          rows.emplace_back(p, n, y, z);
        });
        // Rows are spread over the team so each page is first touched by
        // the kind of thread that computes on it.
        const index h = g.halo();
        const index nrows = static_cast<index>(rows.size());
#pragma omp parallel for num_threads(threads) schedule(static)
        for (index i = 0; i < nrows; ++i) {
          auto [p, n, y, z] = rows[static_cast<std::size_t>(i)];
          for (index x = 0; x < n; ++x)
            p[x] = static_cast<T>(seeded_value(seed, x - h, y, z));
        }
      },
      any);
}

void copy_grid(AnyGrid& dst, const AnyGrid& src) {
  std::visit(
      [&](auto& d) {
        using G = std::decay_t<decltype(d)>;
        using T = typename G::value_type;
        std::vector<const T*> from;
        for_rows(std::get<G>(src),
                 [&](const T* p, index, index, index) { from.push_back(p); });
        std::size_t i = 0;
        for_rows(d, [&](T* p, index n, index, index) {
          std::memcpy(p, from[i++], static_cast<std::size_t>(n) * sizeof(T));
        });
      },
      dst);
}

std::uint64_t digest(const AnyGrid& any) {
  return std::visit(
      [](const auto& g) {
        using T = typename std::decay_t<decltype(g)>::value_type;
        const tsv::Shape s = tsv::shape_of(g);
        const index n = s.nx * s.ny * s.nz;
        // An odd stride of about n / 4096 visits every x residue, so a
        // corrupted column cannot hide between samples.
        const index stride = std::max<index>(1, n / 4096) | 1;
        std::uint64_t h = 1469598103934665603ull;
        auto mix = [&](index i) {
          const T v = cell(g, i % s.nx, (i / s.nx) % s.ny, i / (s.nx * s.ny));
          std::uint64_t bits = 0;
          std::memcpy(&bits, &v, sizeof(T));
          h = (h ^ bits) * 1099511628211ull;
        };
        for (index i = 0; i < n; i += stride) mix(i);
        mix(n - 1);
        return h;
      },
      any);
}

bool values_within(const AnyGrid& any, double lo, double hi) {
  return std::visit(
      [&](const auto& g) {
        const tsv::Shape s = tsv::shape_of(g);
        for (index z = 0; z < s.nz; ++z)
          for (index y = 0; y < s.ny; ++y)
            for (index x = 0; x < s.nx; ++x) {
              const double v = static_cast<double>(cell(g, x, y, z));
              if (!(v >= lo && v <= hi)) return false;
            }
        return true;
      },
      any);
}

void execute(const tsv::Plan& plan, AnyGrid& g) {
  std::visit([&](auto& x) { plan.execute(x); }, g);
}

double reference_error(const Config& c, const AnyGrid& input,
                       const AnyGrid& out) {
  double err = 0.0;
  auto run = [&]<typename T>() {
    with_stencil<T>(c.kind, [&](const auto& st) {
      using S = std::decay_t<decltype(st)>;
      using G = typename GridOf<S::dim, T>::type;
      G ref = std::get<G>(input);
      tsv::reference_run(ref, st, c.opts.steps, c.opts.boundary);
      err = static_cast<double>(tsv::max_abs_diff(ref, std::get<G>(out)));
    });
  };
  if (c.dtype == Dtype::kF32)
    run.template operator()<float>();
  else
    run.template operator()<double>();
  return err;
}

double tolerance(const Config& c) {
  return c.dtype == Dtype::kF32 ? tsv::accuracy_tolerance<float>(c.opts.steps)
                                : tsv::accuracy_tolerance<double>(c.opts.steps);
}

void Result::note(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  info[key] = buf;
}

bool Result::check(bool ok, const std::string& what) {
  if (!ok) wrong.push_back(what);
  return ok;
}

std::int64_t Tracer::add(const char* name, double start, double end,
                         std::int64_t parent, std::int64_t rid) {
  if (!on_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, end, parent, rid});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t Tracer::new_rid() {
  if (!on_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  return next_rid_++;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"time_unit\": \"s\", \"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %lld, \"rid\": %lld}",
                 i == 0 ? "" : ",", i, s.name, s.start, s.end,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.rid));
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

PhaseSamples attach_scheduler_spans(Tracer& tracer,
                                    const std::vector<Submitted>& sent,
                                    const tsv::SchedulerStats& stats,
                                    double ctor_start, double ctor_end) {
  PhaseSamples ph;
  for (const tsv::TraceSpan& t : stats.traces) {
    ph.queue_ms.push_back((t.dispatch_s - t.submit_s) * 1e3);
    ph.gang_wait_ms.push_back((t.sweep_s - t.dispatch_s) * 1e3);
    ph.service_ms.push_back((t.complete_s - t.sweep_s) * 1e3);
  }
  if (!tracer.on()) return ph;

  // A request's TraceSpan carries its group's dispatch_seq and whether it
  // rode another member's execution, which Scheduler::Result reports too;
  // members of one group appear in submission order in both.
  std::map<std::pair<std::uint64_t, bool>, std::vector<const tsv::TraceSpan*>>
      by_key;
  for (const tsv::TraceSpan& t : stats.traces)
    by_key[{t.dispatch_seq, t.coalesced}].push_back(&t);
  std::map<std::pair<std::uint64_t, bool>, std::size_t> used;
  std::vector<std::pair<const Submitted*, const tsv::TraceSpan*>> matched;
  double lo = ctor_start, hi = ctor_end;
  for (const Submitted& s : sent) {
    const std::pair<std::uint64_t, bool> key{s.dispatch_seq, s.coalesced};
    auto it = by_key.find(key);
    if (it == by_key.end() || used[key] >= it->second.size()) continue;
    const tsv::TraceSpan* t = it->second[used[key]++];
    matched.emplace_back(&s, t);
    lo = std::max(lo, s.call_start - t->submit_s);
    hi = std::min(hi, s.call_end - t->submit_s);
  }
  const double epoch = lo <= hi ? 0.5 * (lo + hi) : 0.5 * (ctor_start + ctor_end);
  for (const auto& [s, t] : matched) {
    tracer.add("scheduler.queue", epoch + t->submit_s, epoch + t->dispatch_s,
               s->root, s->rid);
    tracer.add("executor.gang_wait", epoch + t->dispatch_s, epoch + t->sweep_s,
               s->root, s->rid);
    tracer.add("executor.service", epoch + t->sweep_s, epoch + t->complete_s,
               s->root, s->rid);
  }
  return ph;
}

void scheduler_metrics(Result& r, const tsv::SchedulerStats& st,
                       const PhaseSamples& ph) {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const tsv::PlanCacheStats& pc = st.executor.plan_cache;
  const tsv::WorkspacePool::Stats& ws = st.executor.workspaces;
  r.set("cache.hit_ratio",
        ratio(static_cast<double>(pc.hits),
              static_cast<double>(pc.hits + pc.misses)),
        "fraction");
  r.set("cache.misses", static_cast<double>(pc.misses), "count");
  r.set("workspace.reuse_ratio",
        ratio(static_cast<double>(ws.reused),
              static_cast<double>(ws.created + ws.reused)),
        "fraction");
  r.set("executor.utilization", tsv::utilization(st.executor), "fraction");
  r.set("executor.gang_wait_ms.p50", median(ph.gang_wait_ms), "ms");
  r.set("scheduler.queue_ms.p50", median(ph.queue_ms), "ms");
  r.set("scheduler.queue_ms.p99", quantile(ph.queue_ms, 0.99), "ms");
  r.set("scheduler.service_ms.p50", median(ph.service_ms), "ms");
  r.set("scheduler.shed", static_cast<double>(st.shed), "count");
  r.set("scheduler.rejected", static_cast<double>(st.rejected), "count");
  r.set("scheduler.retries", static_cast<double>(st.retries), "count");
  r.set("scheduler.coalesced_frac",
        ratio(static_cast<double>(st.coalesced),
              static_cast<double>(st.submitted)),
        "fraction");
  r.set("scheduler.deadline_missed", static_cast<double>(st.deadline_missed),
        "count");
  r.set("scheduler.timed_out", static_cast<double>(st.timed_out), "count");
}

}  // namespace tsvbench
