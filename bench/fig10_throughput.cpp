// Figure 10 (beyond the paper) — batched multi-tenant throughput.
//
// Serves a batch of INDEPENDENT small-grid requests two ways and compares
// sustained point-update throughput:
//
//   serial   one thread, one Plan::execute after another (plans prebuilt —
//            this is the best a caller loop can do without the gang pool)
//   batched  the same requests through a tsv::Scheduler run as a batch
//            pool (FIFO policy, no coalescing): G gangs take requests off
//            the admission queue, plans deduplicated by the PlanCache,
//            scratch from per-plan workspace pools
//
// The request mix alternates 1D and 2D heat problems — each small enough
// that a single request cannot use the whole machine, which is exactly the
// regime where request-level parallelism is the only throughput lever.
// Correctness is checked inline: every batched grid must be bit-identical
// to its serial twin, else the record is an error (and the exit nonzero).
//
// JSON identity fields (mode, kind, requests, gangs, dtype) are machine-
// independent so records join across runners in the CI regression gate;
// points_per_s is the metric. A 1-core host shows speedup ~1.0 by
// construction — pass --min-speedup 1.5 (the CI bench-smoke job does, on a
// multi-core runner) to turn the batched/serial ratio into a hard gate.
//
// Extra flags (on top of bench_common's):
//   --requests N      batch size                  (default 16)
//   --gangs N         scheduler gangs             (default 4)
//   --min-speedup X   fail if batched/serial < X  (default 0 = report only)

#include "bench_common.hpp"

#include <future>
#include <memory>
#include <vector>

namespace {

using namespace bench;

struct Flags {
  int requests = 16;
  int gangs = 4;
  double min_speedup = 0.0;
};

Flags parse_extra(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--requests") && i + 1 < argc)
      f.requests = std::atoi(argv[++i]);
    else if (!std::strcmp(argv[i], "--gangs") && i + 1 < argc)
      f.gangs = std::atoi(argv[++i]);
    else if (!std::strcmp(argv[i], "--min-speedup") && i + 1 < argc)
      f.min_speedup = std::atof(argv[++i]);
  }
  return f;
}

// The request mix (alternating 1D / 2D heat problems, independent grids)
// lives in bench_common.hpp as MixSlot — fig12_latency drives the same mix
// through the Scheduler, and the two benches must stay comparable.
using Slot = MixSlot;

double elapsed_serial(std::vector<Slot>& slots, tsv::PlanCache& cache) {
  tsv::Timer t;
  for (Slot& s : slots) {
    if (s.g1) {
      auto entry = cache.get(tsv::shape_of(*s.g1), s.spec, s.o);
      entry->plan().execute(*s.g1);
    } else {
      auto entry = cache.get(tsv::shape_of(*s.g2), s.spec, s.o);
      entry->plan().execute(*s.g2);
    }
  }
  return t.seconds();
}

double elapsed_batched(std::vector<Slot>& slots, tsv::Scheduler& pool) {
  tsv::Timer t;
  std::vector<std::future<tsv::Scheduler::Result>> futs;
  futs.reserve(slots.size());
  for (Slot& s : slots)
    futs.push_back(pool.submit({s.grid_ref(), s.spec, s.o}));
  for (auto& f : futs) f.get();
  return t.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  bench::setup_omp();
  const Config cfg = Config::parse(argc, argv);
  const Flags flags = parse_extra(argc, argv);
  print_header("Figure 10: batched gang-pool throughput (mixed small grids)");

  const tsv::index nx = cfg.smoke ? 16384 : 65536;
  const tsv::index steps = cfg.smoke ? 16 : 32;
  const int reps = 3;  // best-of: shared runners stall single shots
  JsonSink json(cfg.json_path);
  CsvSink csv(cfg.csv_path, "fig,mode,requests,gangs,points_per_s");

  std::vector<Slot> serial_slots(flags.requests), batched_slots(flags.requests);
  double total_updates = 0;
  for (int i = 0; i < flags.requests; ++i) {
    serial_slots[i].reset(i, nx, steps);
    total_updates += static_cast<double>(serial_slots[i].points) *
                     static_cast<double>(steps);
  }

  // ---- serial: prebuilt plans, one execute after another -------------------
  tsv::PlanCache cache;
  elapsed_serial(serial_slots, cache);  // warmup: build plans, touch scratch
  double serial_secs = 1e100;
  for (int r = 0; r < reps; ++r) {
    for (int i = 0; i < flags.requests; ++i) serial_slots[i].reset(i, nx, steps);
    serial_secs = std::min(serial_secs, elapsed_serial(serial_slots, cache));
  }
  const double serial_pps = total_updates / serial_secs;

  // ---- batched: same requests through the gang pool ------------------------
  tsv::Scheduler ex(
      fifo_pool(flags.gangs, static_cast<std::size_t>(flags.requests)));
  for (int i = 0; i < flags.requests; ++i) batched_slots[i].reset(i, nx, steps);
  elapsed_batched(batched_slots, ex);  // warmup: plan cache + workspace pools
  double batched_secs = 1e100;
  for (int r = 0; r < reps; ++r) {
    for (int i = 0; i < flags.requests; ++i) batched_slots[i].reset(i, nx, steps);
    batched_secs = std::min(batched_secs, elapsed_batched(batched_slots, ex));
  }
  const double batched_pps = total_updates / batched_secs;

  // ---- correctness: batched must be bit-identical to serial ----------------
  bool ok = true;
  for (int i = 0; i < flags.requests; ++i) {
    serial_slots[i].reset(i, nx, steps);
    batched_slots[i].reset(i, nx, steps);
  }
  elapsed_serial(serial_slots, cache);
  elapsed_batched(batched_slots, ex);
  for (int i = 0; i < flags.requests; ++i) {
    const double diff =
        serial_slots[i].g1
            ? tsv::max_abs_diff(*serial_slots[i].g1, *batched_slots[i].g1)
            : tsv::max_abs_diff(*serial_slots[i].g2, *batched_slots[i].g2);
    if (diff != 0.0) {
      ok = false;
      std::fprintf(stderr, "fig10: request %d diverged (|diff| = %g)\n", i,
                   diff);
      json.record(
          "{\"bench\":\"fig10\",\"kind\":\"small-mix\",\"mode\":\"batched\","
          "\"requests\":%d,\"gangs\":%d,\"error\":true}",
          flags.requests, flags.gangs);
    }
  }

  const double speedup = batched_pps / serial_pps;
  const tsv::ExecutorStats st = ex.stats().executor;
  std::printf("requests = %d (1D nx=%td / 2D %tdx32), steps = %td\n",
              flags.requests, nx, nx / 64, steps);
  std::printf("%-8s %15s\n", "mode", "Mpoints/s");
  std::printf("%-8s %15.1f\n", "serial", serial_pps / 1e6);
  std::printf("%-8s %15.1f   (gangs = %d)\n", "batched", batched_pps / 1e6,
              ex.gangs());
  std::printf("speedup  %15.2fx\n", speedup);
  std::printf(
      "plan cache: %llu hits / %llu misses; workspaces: %llu created, "
      "%llu reused\n",
      static_cast<unsigned long long>(st.plan_cache.hits),
      static_cast<unsigned long long>(st.plan_cache.misses),
      static_cast<unsigned long long>(st.workspaces.created),
      static_cast<unsigned long long>(st.workspaces.reused));

  for (const auto& [mode, pps] :
       {std::pair<const char*, double>{"serial", serial_pps},
        {"batched", batched_pps}}) {
    csv.row("10,%s,%d,%d,%.0f", mode, flags.requests, flags.gangs, pps);
    json.record(
        "{\"bench\":\"fig10\",\"kind\":\"small-mix\",\"mode\":\"%s\","
        "\"requests\":%d,\"gangs\":%d,\"dtype\":\"f64\",\"boundary\":\"%s\","
        "\"steps\":%td,\"points_per_s\":%.0f,\"speedup\":%.3f}",
        mode, flags.requests, flags.gangs, boundary_field_name(), steps, pps,
        speedup);
  }

  if (flags.min_speedup > 0 && speedup < flags.min_speedup) {
    std::fprintf(stderr, "fig10: batched speedup %.2fx below required %.2fx\n",
                 speedup, flags.min_speedup);
    ok = false;
  }
  return ok ? 0 : 1;
}
