// Figure 13 (beyond the paper) — the cost of resilience, and throughput
// under faults.
//
// Two questions, one binary:
//
//  1. OVERHEAD — what does the fault/health instrumentation cost a
//     fault-free request? Five arms run the same single-gang batch-pool
//     workload (1D 3-point, transpose layout) and differ only in the
//     resilience configuration:
//
//        off             injection disabled, health off — the production
//                        default, and the arm whose number joins the
//                        committed baseline (a regression here is a real
//                        hot-path regression)
//        points          injector globally ENABLED, zero points armed —
//                        the registry-call cost of live fault points
//        armed           workspace.alloc + executor.dispatch + kernel.sweep
//                        armed at probability 0.0 — the full draw cost per
//                        pass, still zero fires
//        health_boundary Options::health_check = kBoundary (O(surface) scan)
//        health_full     Options::health_check = kFull (O(volume) scan)
//
//     Arms are measured round-robin (best-of over interleaved rounds, the
//     robust estimator on this virtualized machine) and gated IN-BINARY:
//
//        --max-overhead X        fail when points/armed/health_boundary
//                                throughput drops more than X below `off`
//                                (default 0.02 — the instrumentation must
//                                stay within ~2% when switched off or idle)
//        --max-overhead-full X   same gate for health_full (default 0.10:
//                                a whole-interior scan per execute is an
//                                opt-in with a real, bounded price)
//
//  2. TRANSIENT RETRY — what does the service sustain when kernels actually
//     fault? kernel.sweep is armed at 5% probability under a fixed seed and
//     a retry-budgeted Scheduler serves a closed-loop batch of distinct
//     requests. A sweep fault fires pre-mutation and surfaces as a
//     TransientError; the scheduler re-runs the same cached plan from the
//     request's snapshot. The binary FAILS unless every request completes
//     with retry_exhausted == 0 and the whole arm built exactly one plan
//     (plan_cache.misses == 1: recovery never rebuilds or swaps the planned
//     kernel). Throughput is recorded as points_per_s (machine-bound,
//     median-normalized by compare_baseline.py like every other throughput
//     record).
//
// JSON identity fields: bench/kind/arm/stencil/nx/steps/dtype/boundary.
// Everything measured (points_per_s, requests, retries) is NON_IDENTITY.

#include "bench_common.hpp"

#include <algorithm>
#include <future>
#include <vector>

namespace {

using namespace bench;

struct Flags {
  double max_overhead = 0.02;
  double max_overhead_full = 0.10;
};

Flags parse_extra(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--max-overhead") && i + 1 < argc)
      f.max_overhead = std::atof(argv[++i]);
    else if (!std::strcmp(argv[i], "--max-overhead-full") && i + 1 < argc)
      f.max_overhead_full = std::atof(argv[++i]);
  }
  return f;
}

struct Arm {
  const char* name;
  bool enable_injection;
  bool arm_points;  // probability-0.0 configs on three points
  tsv::HealthCheck health;
};

constexpr Arm kArms[] = {
    {"off", false, false, tsv::HealthCheck::kOff},
    {"points", true, false, tsv::HealthCheck::kOff},
    {"armed", true, true, tsv::HealthCheck::kOff},
    {"health_boundary", false, false, tsv::HealthCheck::kBoundary},
    {"health_full", false, false, tsv::HealthCheck::kFull},
};
constexpr int kArmCount = static_cast<int>(sizeof(kArms) / sizeof(kArms[0]));

/// Applies an arm's injector state process-wide (the measurement toggles
/// global state, which is why arms run strictly one at a time).
void apply(const Arm& a) {
  tsv::FaultInjector& fi = tsv::FaultInjector::instance();
  fi.reset();
  fi.seed(0xf13);
  if (a.arm_points) {
    fi.arm("workspace.alloc", {.probability = 0.0});
    fi.arm("executor.dispatch", {.probability = 0.0});
    fi.arm("kernel.sweep", {.probability = 0.0});
  }
  fi.set_enabled(a.enable_injection);  // after arm(): arm() force-enables
}

tsv::Options arm_options(const Arm& a, tsv::index steps) {
  tsv::Options o;
  o.method = tsv::Method::kTranspose;
  o.steps = steps;
  o.max_threads = 1;
  o.boundary = g_boundary;
  o.stream = g_stream;
  o.health_check = a.health;
  return o;
}

/// One timed pass of an arm: B sequential requests through the (shared)
/// gang pool — the path that crosses every fault point — returning point
/// updates per second. The grid refill is outside the timed region.
double time_arm(tsv::Scheduler& ex, const Arm& a, tsv::Grid1D<double>& g,
                tsv::index steps, int batch) {
  apply(a);
  const tsv::Options o = arm_options(a, steps);
  const tsv::StencilSpec spec{.kind = tsv::StencilKind::k1d3p};
  g.fill([](tsv::index x) {
    return 0.3 + 1e-4 * static_cast<double>(x % 97);
  });
  tsv::Timer t;
  for (int b = 0; b < batch; ++b) ex.submit(g, spec, o).get();
  const double sec = std::max(t.seconds(), 1e-9);
  return static_cast<double>(batch) * static_cast<double>(g.nx()) *
         static_cast<double>(steps) / sec;
}

struct ChaosOut {
  double points_per_s = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t retry_exhausted = 0;
  std::uint64_t plan_misses = 0;
};

/// Closed-loop batch under a 5% kernel-fault rate: every request must
/// complete (first try or retried), none may exhaust its budget.
ChaosOut run_chaos(tsv::index nx, tsv::index steps, int requests) {
  tsv::FaultInjector& fi = tsv::FaultInjector::instance();
  fi.reset();
  fi.seed(0xf13);
  fi.arm("kernel.sweep", {.probability = 0.05});

  ChaosOut out;
  {
    tsv::Scheduler sched({.executor = {.gangs = 2, .threads_per_gang = 1},
                          .retry_budget = 6,
                          .retry_backoff_ms = 0.05,
                          .retry_backoff_max_ms = 1.0});
    std::vector<MixSlot> slots(static_cast<std::size_t>(requests));
    // Even ids: every slot a distinct-content 1D request (no coalescing).
    for (int i = 0; i < requests; ++i)
      slots[static_cast<std::size_t>(i)].reset(2 * i, nx, steps);

    std::vector<std::future<tsv::Scheduler::Result>> futs;
    futs.reserve(slots.size());
    tsv::Timer t;
    for (MixSlot& s : slots)
      futs.push_back(sched.submit({s.grid_ref(), s.spec, s.o}));
    for (auto& f : futs) {
      try {
        f.get();
        ++out.completed;
      } catch (...) {
        ++out.failed;
      }
    }
    const double sec = std::max(t.seconds(), 1e-9);
    out.points_per_s = static_cast<double>(requests) *
                       static_cast<double>(nx) * static_cast<double>(steps) /
                       sec;
    const tsv::SchedulerStats st = sched.stats();
    out.retries = st.retries;
    out.retry_exhausted = st.retry_exhausted;
    out.plan_misses = st.executor.plan_cache.misses;
  }
  fi.reset();
  fi.set_enabled(false);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::setup_omp();
  const Config cfg = Config::parse(argc, argv);
  const Flags flags = parse_extra(argc, argv);
  print_header("Figure 13: resilience overhead and transient-retry throughput");

  const tsv::index nx = cfg.smoke ? 8192 : 65536;
  const tsv::index steps = 64;
  const int batch = cfg.smoke ? 4 : 8;
  const int rounds = cfg.smoke ? 5 : 9;
  const int chaos_requests = cfg.smoke ? 60 : 240;

  JsonSink json(cfg.json_path);
  CsvSink csv(cfg.csv_path, "fig,arm,points_per_s,overhead");

  // ---- overhead arms -------------------------------------------------------
  // One gang pool for every arm: the plan cache keys on health_check, so each
  // arm gets its own cached plan while sharing gang and pool state. A
  // warmup round builds all five plans before anything is timed.
  double pps[kArmCount] = {};
  {
    tsv::Scheduler ex(fifo_pool(1));
    tsv::Grid1D<double> g(nx, 1);
    for (const Arm& a : kArms) time_arm(ex, a, g, steps, 1);  // warmup
    for (int r = 0; r < rounds; ++r)
      for (int i = 0; i < kArmCount; ++i)
        pps[i] = std::max(pps[i], time_arm(ex, kArms[i], g, steps, batch));
  }
  tsv::FaultInjector::instance().reset();
  tsv::FaultInjector::instance().set_enabled(false);

  bool ok = true;
  std::printf("overhead arms (1d3p, nx=%td, steps=%td, batch=%d, best of %d "
              "rounds)\n",
              nx, steps, batch, rounds);
  std::printf("  %-16s %14s %9s %9s\n", "arm", "Mpoints/s", "overhead",
              "gate");
  for (int i = 0; i < kArmCount; ++i) {
    const double overhead = pps[0] > 0 ? 1.0 - pps[i] / pps[0] : 0.0;
    const double gate = i == 0 ? 0.0
                        : !std::strcmp(kArms[i].name, "health_full")
                            ? flags.max_overhead_full
                            : flags.max_overhead;
    const bool fail = i > 0 && gate > 0 && overhead > gate;
    std::printf("  %-16s %14.1f %8.2f%% %8.2f%% %s\n", kArms[i].name,
                pps[i] / 1e6, overhead * 1e2, gate * 1e2,
                fail ? "FAIL" : "");
    if (fail) {
      std::fprintf(stderr,
                   "fig13: arm %s overhead %.2f%% over gate %.2f%%\n",
                   kArms[i].name, overhead * 1e2, gate * 1e2);
      ok = false;
    }
    csv.row("13,%s,%.0f,%.4f", kArms[i].name, pps[i], overhead);
    json.record(
        "{\"bench\":\"fig13\",\"kind\":\"overhead\",\"arm\":\"%s\","
        "\"stencil\":\"1d3p\",\"nx\":%td,\"steps\":%td,\"dtype\":\"f64\","
        "\"boundary\":\"%s\",\"points_per_s\":%.0f}",
        kArms[i].name, nx, steps, boundary_field_name(), pps[i]);
  }

  // ---- transient retry -----------------------------------------------------
  const ChaosOut chaos = run_chaos(nx, steps, chaos_requests);
  std::printf(
      "\nchaos arm (kernel.sweep p=0.05, %d requests, retry budget 6)\n"
      "  %14.1f Mpoints/s   completed %llu/%d   retries %llu   "
      "exhausted %llu   plans built %llu\n",
      chaos_requests, chaos.points_per_s / 1e6,
      static_cast<unsigned long long>(chaos.completed), chaos_requests,
      static_cast<unsigned long long>(chaos.retries),
      static_cast<unsigned long long>(chaos.retry_exhausted),
      static_cast<unsigned long long>(chaos.plan_misses));
  if (chaos.completed != static_cast<std::uint64_t>(chaos_requests) ||
      chaos.failed != 0 || chaos.retry_exhausted != 0) {
    std::fprintf(stderr,
                 "fig13: chaos arm lost requests (completed %llu, failed "
                 "%llu, exhausted %llu)\n",
                 static_cast<unsigned long long>(chaos.completed),
                 static_cast<unsigned long long>(chaos.failed),
                 static_cast<unsigned long long>(chaos.retry_exhausted));
    ok = false;
  }
  if (chaos.plan_misses != 1) {
    std::fprintf(stderr,
                 "fig13: chaos arm built %llu plans, expected 1 (fault "
                 "recovery must re-run the planned kernel)\n",
                 static_cast<unsigned long long>(chaos.plan_misses));
    ok = false;
  }
  csv.row("13,chaos,%.0f,0", chaos.points_per_s);
  json.record(
      "{\"bench\":\"fig13\",\"kind\":\"chaos\",\"arm\":\"kernel5pct\","
      "\"stencil\":\"1d3p\",\"nx\":%td,\"steps\":%td,\"dtype\":\"f64\","
      "\"boundary\":\"%s\",\"points_per_s\":%.0f,\"requests\":%d,"
      "\"retries\":%llu}",
      nx, steps, boundary_field_name(), chaos.points_per_s, chaos_requests,
      static_cast<unsigned long long>(chaos.retries));

  return ok ? 0 : 1;
}
