// Per-layer measurements of a traced run.
//
//   kernel suite   the twelve sweep_l2 configurations and four methods on
//                  2d9p f64, each as a plain Plan::execute rate
//   layer ladder   the workload's own request sent through TypedPlan, then
//                  the rank-erased Plan, then a Scheduler with one request
//                  in flight (retry budget 0 and the workload's), so each
//                  layer's cost is the difference to the rung below
//   two-point fits execute time = fixed + per-step * steps on the same
//                  grid, untiled and with the workload's options
//   tiling         the workload's plan against an untiled sweep of the
//                  same grid, and against the same-run roofline
//   ghost fill     fill_ghosts on serve_tiled's periodic 1024 x 512 grid

#include <algorithm>

#include "bench.hpp"

namespace tsvbench {

using tsv::Method;
using tsv::Options;
using tsv::StencilKind;
using tsv::Tiling;

namespace {

/// Median Gpts/s of Plan::execute on @p c: one warm-up, then repeats until
/// @p budget seconds and at least three executes have passed.
double plan_rate(const Config& c, std::uint64_t seed, double budget) {
  AnyGrid g = make_grid(c.shape, c.dtype);
  fill_seeded(g, seed);
  const tsv::Plan plan = tsv::make_plan(c.shape, spec_of(c.kind), c.opts);
  execute(plan, g);
  std::vector<double> t;
  const double end = now_s() + budget;
  while (t.size() < 3 || now_s() < end) {
    const double t0 = now_s();
    execute(plan, g);
    t.push_back(now_s() - t0);
  }
  return c.updates() / median(t) / 1e9;
}

void kernel_suite(const Machine& m, std::uint64_t seed, Result& r) {
  constexpr double kBudget = 0.1;
  const std::vector<Config> cfgs = sweep_configs();
  std::vector<double> fracs;
  for (const Config& c : cfgs) {
    const double rate = plan_rate(c, seed, kBudget);
    r.set("kernel.gpts_per_s." + c.name(), rate, "Gpts/s");
    // An f32 FMA does twice the lanes of the measured f64 one.
    const double peak =
        m.fma_gflops_1t * (c.dtype == tsv::Dtype::kF32 ? 2.0 : 1.0);
    fracs.push_back(rate * flops_per_point(c.kind) / peak);
  }
  r.set("kernel.compute_roof_frac", geomean(fracs), "fraction");
  const Config base = cfgs[6];  // 2d9p.f64
  for (Method meth : {Method::kMultiLoad, Method::kTranspose,
                      Method::kTransposeUJ, Method::kGeneric}) {
    Config c = base;
    c.opts.method = meth;
    r.set(std::string("kernel.method.gpts_per_s.") + tsv::method_name(meth),
          plan_rate(c, seed, kBudget), "Gpts/s");
  }
}

/// Median seconds of @p reps executes, each on a fresh copy of @p input,
/// after one warm-up execute.
template <typename G, typename Exec>
double time_reps(AnyGrid& work, const AnyGrid& input, int reps,
                 const char* span, Tracer& tr, Exec&& exec) {
  G& g = std::get<G>(work);
  copy_grid(work, input);
  exec(g);
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    copy_grid(work, input);
    const double t0 = now_s();
    exec(g);
    const double t1 = now_s();
    tr.add(span, t0, t1);
    t.push_back(t1 - t0);
  }
  return median(t);
}

struct Fit {
  double fixed_s, per_update_s;
};

template <typename S>
void ladder(const LadderSpec& sp, const S& stencil, std::uint64_t seed,
            const Machine& m, bool set_sched, Result& r, Tracer& tr) {
  using G = typename GridOf<S::dim, double>::type;
  const Config& c = sp.config;
  const tsv::StencilSpec spec = spec_of(c.kind);
  const int threads = max_threads();
  const index steps = c.opts.steps;
  Tracer quiet(false);  // runs whose spans would blur the ladder's

  Options untiled = c.opts;
  untiled.method = Method::kTranspose;
  untiled.tiling = Tiling::kNone;
  untiled.threads = untiled.max_threads = 0;
  untiled.bx = untiled.by = untiled.bz = untiled.bt = 0;
  const bool is_untiled =
      c.opts.tiling == Tiling::kNone && c.opts.method == Method::kTranspose;

  double t_typed = 0, t_plan = 0, t_sched[2] = {0, 0};
  tsv::ResolvedOptions cfg;
  AnyGrid input = make_grid(c.shape, c.dtype, tsv::FirstTouch::kNone);
  fill_seeded(input, seed, threads);
  AnyGrid work = make_grid(c.shape, c.dtype, tsv::FirstTouch::kNone);
  fill_seeded(work, seed, threads);

  std::vector<double> build;
  for (int i = 0; i < sp.reps; ++i) {
    const double t0 = now_s();
    const tsv::Plan p = tsv::make_plan(c.shape, spec, c.opts);
    const double t1 = now_s();
    tr.add("make_plan", t0, t1);
    build.push_back(t1 - t0);
  }
  r.set("plan.build_ms", median(build) * 1e3, "ms");

  // Each rung's plan (and its workspace) is gone before the next one is
  // built, so the large grids are held at most three times.
  {
    const auto tp = tsv::make_plan(c.shape, stencil, c.opts);
    cfg = tp.config();
    t_typed = time_reps<G>(work, input, sp.reps, "typed.execute", tr,
                           [&](G& g) { tp.execute(g); });
  }
  {
    const tsv::Plan p = tsv::make_plan(c.shape, spec, c.opts);
    t_plan = time_reps<G>(work, input, sp.reps, "plan.execute", tr,
                          [&](G& g) { p.execute(g); });
  }
  for (int b = 0; b < 2; ++b) {
    // b = 0: no retry budget, so no input snapshot; b = 1: the
    // workload's serving configuration, which is the one traced.
    tsv::SchedulerConfig sc = sp.sched;
    if (b == 0) sc.retry_budget = 0;
    Tracer& t = b == 1 ? tr : quiet;
    if (b == 1) sc.trace_capacity = 4096;
    std::vector<Submitted> sent;
    std::vector<double> secs;
    const double c0 = now_s();
    tsv::Scheduler s(sc);
    const double c1 = now_s();
    const auto request = [&] { return make_request(work, spec, c.opts); };
    copy_grid(work, input);
    s.submit(request()).get();  // plan build and workspace
    for (int i = 0; i < sp.reps; ++i) {
      copy_grid(work, input);
      const std::int64_t rid = t.new_rid();
      const double a0 = now_s();
      auto fut = s.submit(request());
      const double a1 = now_s();
      const tsv::Scheduler::Result res = fut.get();
      const double a2 = now_s();
      const std::int64_t root = t.add("request", a0, a2, -1, rid);
      t.add("scheduler.submit", a0, a1, root, rid);
      sent.push_back({a0, a1, res.dispatch_seq, res.coalesced, root, rid});
      secs.push_back(a2 - a0);
    }
    t_sched[b] = median(secs);
    s.wait_idle();
    if (b == 1) {
      const tsv::SchedulerStats st = s.stats();
      const PhaseSamples ph = attach_scheduler_spans(tr, sent, st, c0, c1);
      if (set_sched) scheduler_metrics(r, st, ph);
    }
  }
  double t_untiled = t_typed;
  if (!is_untiled) {
    const auto tp = tsv::make_plan(c.shape, stencil, untiled);
    t_untiled = time_reps<G>(work, input, sp.reps, "typed.execute", quiet,
                             [&](G& g) { tp.execute(g); });
  }

  // Two-point fits over the step count on the same grid, so that both
  // points see the same cache level: time = fixed + per_step * steps.
  // The intercept is the per-execute cost (layout transforms, ghost
  // fill, dispatch); the slope over the points is the cost per update.
  const index short_steps = std::max<index>(1, steps / 4);
  const auto fit = [&](const Options& o, double t_long) {
    Options os = o;
    os.steps = short_steps;
    const auto tp = tsv::make_plan(c.shape, stencil, os);
    const double t_short =
        time_reps<G>(work, input, sp.reps, "typed.execute", quiet,
                     [&](G& g) { tp.execute(g); });
    const double per_step =
        (t_long - t_short) / static_cast<double>(steps - short_steps);
    return Fit{t_long - per_step * static_cast<double>(steps),
               per_step / static_cast<double>(c.points())};
  };
  const Fit fu = fit(untiled, t_untiled);
  const Fit fo = is_untiled ? fu : fit(c.opts, t_typed);
  r.set("kernel.fixed_us", fu.fixed_s * 1e6, "us");
  r.set("kernel.ns_per_pt", fu.per_update_s * 1e9, "ns");
  r.set("plan.typed.fixed_us", fo.fixed_s * 1e6, "us");
  r.set("plan.typed.ns_per_pt", fo.per_update_s * 1e9, "ns");
  r.set("plan.typed.exec_ms", t_typed * 1e3, "ms");
  r.set("plan.erased.fixed_us", (t_plan - t_typed) * 1e6, "us");
  r.set("scheduler.overhead_us", (t_sched[1] - t_typed) * 1e6, "us");
  r.set("scheduler.snapshot_us", (t_sched[1] - t_sched[0]) * 1e6, "us");
  r.set("scheduler.vs_plan_ratio", t_plan / t_sched[1], "x");

  // Tiling against an untiled sweep and against the roofline, whose memory
  // side uses computed bytes: one read and one write of the element per
  // update, shared by the bt steps of a temporal block.
  const double updates = c.updates();
  const double gpts = updates / t_typed / 1e9;
  const double bt = static_cast<double>(std::max<index>(1, cfg.bt));
  const double bytes = 2.0 * static_cast<double>(tsv::dtype_size(c.dtype)) / bt;
  const double flops = flops_per_point(c.kind);
  const double peak = cfg.threads >= threads ? m.fma_gflops
                                             : m.fma_gflops_1t * cfg.threads;
  const double roof = std::min(peak, m.triad_gbs * flops / bytes);
  r.set("tiling.gpts_per_s", gpts, "Gpts/s");
  r.set("tiling.untiled_gpts_per_s", updates / t_untiled / 1e9, "Gpts/s");
  r.set("tiling.speedup", t_untiled / t_typed, "x");
  r.set("tiling.dram_roof_frac", gpts * flops / roof, "fraction");
  r.set("tiling.bt", static_cast<double>(cfg.bt), "count");
  r.set("tiling.bx", static_cast<double>(cfg.bx), "count");
  r.set("tiling.by", static_cast<double>(cfg.by), "count");
  r.set("tiling.bz", static_cast<double>(cfg.bz), "count");
  r.note("ladder.request", c.name() + " " + tsv::method_name(cfg.method) +
                               "/" + tsv::tiling_name(cfg.tiling));
  r.note("ladder.threads", cfg.threads);
  r.note("tiling.computed_bytes_per_update", bytes);
}

double ghost_fill_us(std::uint64_t seed) {
  AnyGrid any = make_grid(tsv::shape2d(1024, 512), tsv::Dtype::kF64);
  fill_seeded(any, seed);
  auto& g = std::get<tsv::Grid2D<double>>(any);
  const tsv::BoundarySpec bc = tsv::BoundarySpec::uniform(tsv::Boundary::kPeriodic);
  std::vector<double> t;
  for (int i = 0; i < 200; ++i) {
    const double t0 = now_s();
    tsv::fill_ghosts(g, bc, 1);
    t.push_back(now_s() - t0);
  }
  return median(t) * 1e6;
}

}  // namespace

void probe_layers(const LadderSpec& sp, const Machine& m, std::uint64_t seed,
                  bool set_sched, Result& r, Tracer& tr) {
  kernel_suite(m, hash64(seed, 700), r);
  const std::uint64_t s = hash64(seed, 701);
  switch (sp.config.kind) {
    case StencilKind::k1d3p:
      ladder(sp, tsv::make_1d3p<double>(), s, m, set_sched, r, tr);
      break;
    case StencilKind::k2d5p:
      ladder(sp, tsv::make_2d5p<double>(), s, m, set_sched, r, tr);
      break;
    case StencilKind::k2d9p:
      ladder(sp, tsv::make_2d9p<double>(), s, m, set_sched, r, tr);
      break;
    case StencilKind::k3d7p:
      ladder(sp, tsv::make_3d7p<double>(), s, m, set_sched, r, tr);
      break;
    default:
      throw std::invalid_argument("no layer ladder for this request kind");
  }
  r.set("plan.ghost_fill_us", ghost_fill_us(hash64(seed, 702)), "us");
}

}  // namespace tsvbench
