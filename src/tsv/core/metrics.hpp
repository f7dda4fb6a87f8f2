#pragma once
// Fleet observability: one coherent snapshot of every stats producer in the
// stack — the Scheduler (admission/shedding/latency/traces, and its gang
// pool: gangs, plan cache, workspace pools), the autotuner (trials, memo hits, tune-db
// warm hits) and the fault-injection ledgers — exportable as JSON for
// dashboards and as Prometheus text exposition for scrapers.
//
//   tsv::MetricsRegistry reg;
//   reg.attach(&scheduler);            // non-owning; detach before destroy
//   tsv::MetricsSnapshot m = reg.snapshot();
//   std::string page = tsv::metrics_to_prometheus(m);
//   std::string json = tsv::metrics_to_json(m);
//   for (const std::string& v : tsv::metrics_check_invariants(m, true))
//     std::fprintf(stderr, "invariant violated: %s\n", v.c_str());
//
// A snapshot is PULL-based and read-only: every source keeps its own
// counters under its own lock, snapshot() collects them, and nothing on the
// request path knows metrics exist. The per-source snapshots are each
// internally consistent (taken under that source's lock) but not mutually
// atomic — across sources a scrape under load may be skewed by in-flight
// requests, which is why metrics_check_invariants distinguishes the
// always-true identities (submitted == admitted + rejected) from the
// idle-only ones (submitted == completed + failed + shed + rejected).
//
// Metric names, types and labels are documented in docs/OBSERVABILITY.md;
// tests/test_metrics.cpp validates the exposition against the Prometheus
// text-format grammar and pins every conservation invariant.

#include <cstdint>
#include <string>
#include <vector>

#include "tsv/core/fault.hpp"
#include "tsv/core/scheduler.hpp"
#include "tsv/core/tuner.hpp"

namespace tsv {

/// Pass/fire counters of one named fault-injection site
/// (core/fault.hpp). Zero-valued sites are included so a scrape always
/// exposes the full site set.
struct FaultSiteStats {
  std::string site;
  FaultInjector::PointStats stats;
};

/// Everything the stack can tell an operator at one instant. `has_*` flags
/// record which sources were attached — an absent source is omitted from
/// both export formats rather than exported as zeros.
struct MetricsSnapshot {
  bool has_scheduler = false;
  SchedulerStats scheduler;  ///< includes the gang pool's stats

  TuneCounters tuner;  ///< process-wide (core/tuner.hpp)

  bool faults_enabled = false;      ///< FaultInjector master switch
  std::vector<FaultSiteStats> faults;  ///< every site, fixed order
};

/// Non-owning registry of stat sources. attach() stores a pointer; the
/// caller guarantees the source outlives the registry (or detaches first).
/// snapshot() is safe to call concurrently with serving traffic — it only
/// takes each source's stats() snapshot. Tuner and fault counters are
/// process-wide singletons and are always included.
class MetricsRegistry {
 public:
  void attach(const Scheduler* s) { scheduler_ = s; }
  void detach_scheduler() { scheduler_ = nullptr; }

  MetricsSnapshot snapshot() const;

 private:
  const Scheduler* scheduler_ = nullptr;
};

/// JSON export: one object with "scheduler" / "tuner" / "faults" sections
/// (an absent scheduler is omitted; its gang pool rides along as
/// scheduler.executor). Trace spans ride along under
/// scheduler.traces — they are per-request events, so they appear here and
/// not in the Prometheus exposition.
std::string metrics_to_json(const MetricsSnapshot& m);

/// Prometheus text exposition (format 0.0.4): `# HELP` / `# TYPE` headers,
/// `tsv_`-prefixed names, counters suffixed `_total`, latency as a native
/// histogram (cumulative `le` buckets from LatencyHistogram's log2 buckets,
/// plus `_sum` and `_count`) labelled by service class. Gang-pool metrics
/// carry via="scheduler".
std::string metrics_to_prometheus(const MetricsSnapshot& m);

/// Checks the conservation invariants that must hold for ANY snapshot, and
/// — when @p idle asserts nothing is queued or in flight — the stricter
/// quiesced identities. One Scheduler::wait_idle() reaches "idle": the
/// scheduler's accounting is final before a group leaves the in-flight set.
///
///   always: admitted + rejected == submitted
///           completed + failed + shed <= admitted
///           cancelled + timed_out <= failed
///           per-class latency counts sum == completed
///           deadline_missed <= completed; coalesced <= admitted
///           coalesced <= digests <= submitted
///           workspace free + in_flight <= created
///           tuner memo_hits <= lookups, db_warm_hits <= memo_hits
///           per-site fault fires <= passes
///   idle:   completed + failed + shed == admitted; queued == inflight == 0
///           workspace in_flight == 0
///
/// Returns one human-readable line per violated invariant; empty = healthy.
std::vector<std::string> metrics_check_invariants(const MetricsSnapshot& m,
                                                  bool idle = false);

}  // namespace tsv
