#include "tsv/core/metrics.hpp"

#include <cstdio>
#include <sstream>
#include <string>
#include <type_traits>

namespace tsv {

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot m;
  if (scheduler_ != nullptr) {
    m.has_scheduler = true;
    m.scheduler = scheduler_->stats();
  }
  m.tuner = tune_counters();
  FaultInjector& fi = FaultInjector::instance();
  m.faults_enabled = fi.enabled();
  m.faults.reserve(kFaultSiteCount);
  for (int i = 0; i < kFaultSiteCount; ++i) {
    const char* name = fault_site_name(static_cast<FaultSite>(i));
    m.faults.push_back({name, fi.stats(name)});
  }
  return m;
}

namespace {

// Shortest round-trippable formatting for doubles: %.17g is lossless but
// noisy; %g loses precision. Try increasing precision until the value
// round-trips.
std::string fmt_double(double v) {
  char buf[40];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::stod(buf) == v) break;
  }
  return buf;
}

void json_executor(std::ostringstream& os, const ExecutorStats& e) {
  os << "{\"uptime_seconds\":" << fmt_double(e.uptime_seconds)
     << ",\"utilization\":" << fmt_double(utilization(e))
     << ",\"plan_cache\":{\"hits\":" << e.plan_cache.hits
     << ",\"misses\":" << e.plan_cache.misses
     << ",\"evictions\":" << e.plan_cache.evictions
     << ",\"entries\":" << e.plan_cache.entries
     << "},\"workspaces\":{\"created\":" << e.workspaces.created
     << ",\"reused\":" << e.workspaces.reused
     << ",\"free\":" << e.workspaces.free
     << ",\"in_flight\":" << e.workspaces.in_flight << "},\"gangs\":[";
  for (std::size_t g = 0; g < e.gangs.size(); ++g) {
    if (g) os << ",";
    os << "{\"tasks\":" << e.gangs[g].tasks
       << ",\"busy_seconds\":" << fmt_double(e.gangs[g].busy_seconds) << "}";
  }
  os << "]}";
}

void json_latency(std::ostringstream& os, const LatencyHistogram& h) {
  os << "{\"count\":" << h.count() << ",\"sum_s\":" << fmt_double(h.sum_seconds())
     << ",\"mean_s\":" << fmt_double(h.mean_seconds())
     << ",\"p50_s\":" << fmt_double(h.quantile(0.50))
     << ",\"p95_s\":" << fmt_double(h.quantile(0.95))
     << ",\"p99_s\":" << fmt_double(h.quantile(0.99)) << "}";
}

}  // namespace

std::string metrics_to_json(const MetricsSnapshot& m) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  const auto section = [&](const char* name) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":";
  };
  if (m.has_scheduler) {
    const SchedulerStats& s = m.scheduler;
    section("scheduler");
    os << "{\"submitted\":" << s.submitted << ",\"admitted\":" << s.admitted
       << ",\"rejected\":" << s.rejected << ",\"shed\":" << s.shed
       << ",\"coalesced\":" << s.coalesced << ",\"digests\":" << s.digests
       << ",\"completed\":" << s.completed
       << ",\"failed\":" << s.failed
       << ",\"deadline_missed\":" << s.deadline_missed
       << ",\"retries\":" << s.retries
       << ",\"retry_exhausted\":" << s.retry_exhausted
       << ",\"cancelled\":" << s.cancelled << ",\"timed_out\":" << s.timed_out
       << ",\"polled_executes\":" << s.polled_executes
       << ",\"queued\":" << s.queued << ",\"inflight\":" << s.inflight
       << ",\"peak_tenant_inflight\":" << s.peak_tenant_inflight
       << ",\"latency\":{";
    for (int c = 0; c < kServiceClasses; ++c) {
      if (c) os << ",";
      os << "\"" << service_class_name(static_cast<ServiceClass>(c)) << "\":";
      json_latency(os, s.latency[static_cast<std::size_t>(c)]);
    }
    os << "},\"traces\":[";
    for (std::size_t i = 0; i < s.traces.size(); ++i) {
      const TraceSpan& t = s.traces[i];
      if (i) os << ",";
      os << "{\"seq\":" << t.seq << ",\"dispatch_seq\":" << t.dispatch_seq
         << ",\"class\":\"" << service_class_name(t.cls) << "\""
         << ",\"coalesced\":" << (t.coalesced ? "true" : "false")
         << ",\"outcome\":\"" << t.outcome << "\""
         << ",\"submit_s\":" << fmt_double(t.submit_s)
         << ",\"dispatch_s\":" << fmt_double(t.dispatch_s)
         << ",\"sweep_s\":" << fmt_double(t.sweep_s)
         << ",\"complete_s\":" << fmt_double(t.complete_s) << "}";
    }
    os << "],\"executor\":";
    json_executor(os, s.executor);
    os << "}";
  }
  section("tuner");
  os << "{\"lookups\":" << m.tuner.lookups
     << ",\"memo_hits\":" << m.tuner.memo_hits
     << ",\"db_warm_hits\":" << m.tuner.db_warm_hits
     << ",\"trial_searches\":" << m.tuner.trial_searches
     << ",\"trial_executions\":" << m.tuner.trial_executions
     << ",\"db_loads\":" << m.tuner.db_loads
     << ",\"db_entries_loaded\":" << m.tuner.db_entries_loaded
     << ",\"db_load_rejects\":" << m.tuner.db_load_rejects
     << ",\"db_saves\":" << m.tuner.db_saves << "}";
  section("faults");
  os << "{\"enabled\":" << (m.faults_enabled ? "true" : "false")
     << ",\"sites\":[";
  for (std::size_t i = 0; i < m.faults.size(); ++i) {
    if (i) os << ",";
    os << "{\"site\":\"" << m.faults[i].site
       << "\",\"passes\":" << m.faults[i].stats.passes
       << ",\"fires\":" << m.faults[i].stats.fires << "}";
  }
  os << "]}}";
  return os.str();
}

namespace {

/// Emitter for one Prometheus metric family: HELP/TYPE header once, then
/// any number of samples (multiple label sets share the header, as the
/// format requires).
class PromFamily {
 public:
  PromFamily(std::ostringstream& os, const char* name, const char* type,
             const char* help)
      : os_(os), name_(name) {
    os_ << "# HELP " << name_ << " " << help << "\n";
    os_ << "# TYPE " << name_ << " " << type << "\n";
  }

  void sample(std::uint64_t v, const std::string& labels = {}) {
    os_ << name_ << labels << " " << v << "\n";
  }
  void sample(double v, const std::string& labels = {}) {
    os_ << name_ << labels << " " << fmt_double(v) << "\n";
  }
  /// Suffixed sample: histogram _bucket/_sum/_count lines share the
  /// family's header.
  template <typename V>
  void suffixed(const char* suffix, V v, const std::string& labels = {}) {
    os_ << name_ << suffix << labels;
    if constexpr (std::is_floating_point_v<V>)
      os_ << " " << fmt_double(v) << "\n";
    else
      os_ << " " << v << "\n";
  }

 private:
  std::ostringstream& os_;
  const char* name_;
};

std::string label(const char* k, const std::string& v) {
  return std::string("{") + k + "=\"" + v + "\"}";
}

void prom_executor(std::ostringstream& os, const ExecutorStats& e) {
  const std::string via = label("via", "scheduler");
  const auto emit = [&](const char* name, const char* type, const char* help,
                        auto v) { PromFamily(os, name, type, help).sample(v, via); };
  const auto per_gang = [&](const char* name, const char* help, auto field) {
    PromFamily f(os, name, "counter", help);
    for (std::size_t g = 0; g < e.gangs.size(); ++g)
      f.sample(field(e.gangs[g]),
               "{via=\"scheduler\",gang=\"" + std::to_string(g) + "\"}");
  };
  emit("tsv_executor_uptime_seconds", "gauge",
       "Wall time since scheduler construction.", e.uptime_seconds);
  emit("tsv_executor_utilization", "gauge",
       "Whole-pool busy fraction in [0,1].", utilization(e));
  per_gang("tsv_executor_gang_tasks_total", "Groups run, per gang.",
           [](const GangStats& g) { return g.tasks; });
  per_gang("tsv_executor_gang_busy_seconds_total",
           "Wall time spent inside groups, per gang.",
           [](const GangStats& g) { return g.busy_seconds; });
  emit("tsv_plan_cache_hits_total", "counter", "Plan cache lookups served.",
       e.plan_cache.hits);
  emit("tsv_plan_cache_misses_total", "counter",
       "Plan cache lookups that built a plan.", e.plan_cache.misses);
  emit("tsv_plan_cache_evictions_total", "counter",
       "Plans evicted by capacity.", e.plan_cache.evictions);
  emit("tsv_plan_cache_entries", "gauge", "Plans currently cached.",
       std::uint64_t(e.plan_cache.entries));
  emit("tsv_workspace_created_total", "counter",
       "Workspaces constructed on empty-pool checkouts.", e.workspaces.created);
  emit("tsv_workspace_reused_total", "counter",
       "Checkouts served from the free list.", e.workspaces.reused);
  emit("tsv_workspace_free", "gauge", "Workspaces parked in pools.",
       std::uint64_t(e.workspaces.free));
  emit("tsv_workspace_in_flight", "gauge", "Live workspace leases.",
       std::uint64_t(e.workspaces.in_flight));
}

}  // namespace

std::string metrics_to_prometheus(const MetricsSnapshot& m) {
  std::ostringstream os;
  if (m.has_scheduler) {
    const SchedulerStats& s = m.scheduler;
    const auto counter = [&](const char* name, const char* help,
                             std::uint64_t v) {
      PromFamily(os, name, "counter", help).sample(v);
    };
    const auto gauge = [&](const char* name, const char* help,
                           std::uint64_t v) {
      PromFamily(os, name, "gauge", help).sample(v);
    };
    counter("tsv_scheduler_submitted_total",
            "Requests submitted (admitted + rejected).", s.submitted);
    counter("tsv_scheduler_admitted_total", "Requests admitted to the queue.",
            s.admitted);
    counter("tsv_scheduler_rejected_total",
            "Submissions refused at admission (queue full).", s.rejected);
    counter("tsv_scheduler_shed_total",
            "Queued requests dropped to make room for newer work.", s.shed);
    counter("tsv_scheduler_coalesced_total",
            "Requests served by another request's execution.", s.coalesced);
    counter("tsv_scheduler_digests_total",
            "Grid content digests computed for coalescing (plan-key "
            "matches only).",
            s.digests);
    counter("tsv_scheduler_completed_total",
            "Requests completed successfully.", s.completed);
    counter("tsv_scheduler_failed_total",
            "Requests failed into their future.", s.failed);
    counter("tsv_scheduler_deadline_missed_total",
            "Completed requests that finished past their deadline.",
            s.deadline_missed);
    counter("tsv_scheduler_retries_total",
            "Transient-failure re-executions performed.", s.retries);
    counter("tsv_scheduler_retry_exhausted_total",
            "Groups whose transient error surfaced after the retry budget.",
            s.retry_exhausted);
    counter("tsv_scheduler_cancelled_total",
            "Requests failed with CancelledError (subset of failed).",
            s.cancelled);
    counter("tsv_scheduler_timed_out_total",
            "Requests failed with TimeoutError (subset of failed).",
            s.timed_out);
    counter("tsv_scheduler_polled_executes_total",
            "Request groups run under a cancel token or timeout, polled "
            "between time blocks.",
            s.polled_executes);
    gauge("tsv_scheduler_queued", "Coalesce groups waiting in the queue.",
          s.queued);
    gauge("tsv_scheduler_inflight", "Groups running on a gang.",
          s.inflight);
    gauge("tsv_scheduler_peak_tenant_inflight",
          "Max concurrent in-flight requests of one tenant.",
          s.peak_tenant_inflight);
    {
      PromFamily f(os, "tsv_request_latency_seconds", "histogram",
                   "Completion latency, admission to future ready.");
      for (int c = 0; c < kServiceClasses; ++c) {
        const std::string cls =
            service_class_name(static_cast<ServiceClass>(c));
        const LatencyHistogram& h = s.latency[static_cast<std::size_t>(c)];
        std::uint64_t cum = 0;
        for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
          cum += h.bucket_count(b);
          f.suffixed("_bucket", cum,
                     "{class=\"" + cls + "\",le=\"" +
                         fmt_double(LatencyHistogram::bucket_upper_seconds(b)) +
                         "\"}");
        }
        f.suffixed("_bucket", h.count(),
                   "{class=\"" + cls + "\",le=\"+Inf\"}");
        f.suffixed("_sum", h.sum_seconds(), label("class", cls));
        f.suffixed("_count", h.count(), label("class", cls));
      }
    }
  }
  if (m.has_scheduler) prom_executor(os, m.scheduler.executor);
  const auto tune_counter = [&](const char* name, const char* help,
                                std::uint64_t v) {
    PromFamily(os, name, "counter", help).sample(v);
  };
  tune_counter("tsv_tune_lookups_total", "Memo-cache lookups.",
               m.tuner.lookups);
  tune_counter("tsv_tune_memo_hits_total", "Memo-cache hits.",
               m.tuner.memo_hits);
  tune_counter("tsv_tune_db_warm_hits_total",
               "Memo-cache hits served by tune-db-loaded entries.",
               m.tuner.db_warm_hits);
  tune_counter("tsv_tune_trial_searches_total",
               "Timed candidate searches run.", m.tuner.trial_searches);
  tune_counter("tsv_tune_trial_executions_total",
               "Timed trial plan executions (0 on a warm start).",
               m.tuner.trial_executions);
  tune_counter("tsv_tune_db_loads_total", "Tune databases merged on load.",
               m.tuner.db_loads);
  tune_counter("tsv_tune_db_entries_loaded_total",
               "Entries merged from tune databases.",
               m.tuner.db_entries_loaded);
  tune_counter("tsv_tune_db_load_rejects_total",
               "Tune databases rejected (corrupt/schema/fingerprint).",
               m.tuner.db_load_rejects);
  tune_counter("tsv_tune_db_saves_total", "Tune databases written.",
               m.tuner.db_saves);
  PromFamily(os, "tsv_fault_injection_enabled", "gauge",
             "1 when the fault-injection master switch is armed.")
      .sample(std::uint64_t(m.faults_enabled ? 1 : 0));
  {
    PromFamily f(os, "tsv_fault_passes_total", "counter",
                 "Times a fault site was reached while armed.");
    for (const FaultSiteStats& fs : m.faults)
      f.sample(fs.stats.passes, label("site", fs.site));
  }
  {
    PromFamily f(os, "tsv_fault_fires_total", "counter",
                 "Times a fault site threw an injected fault.");
    for (const FaultSiteStats& fs : m.faults)
      f.sample(fs.stats.fires, label("site", fs.site));
  }
  return os.str();
}

std::vector<std::string> metrics_check_invariants(const MetricsSnapshot& m,
                                                  bool idle) {
  std::vector<std::string> out;
  const auto fail = [&](std::ostringstream& os) { out.push_back(os.str()); };
  const auto check = [&](bool ok, const char* what, std::uint64_t lhs,
                         std::uint64_t rhs) {
    if (ok) return;
    std::ostringstream os;
    os << what << " (" << lhs << " vs " << rhs << ")";
    fail(os);
  };

  if (m.has_scheduler) {
    const SchedulerStats& s = m.scheduler;
    check(s.admitted + s.rejected == s.submitted,
          "scheduler: admitted + rejected == submitted",
          s.admitted + s.rejected, s.submitted);
    check(s.completed + s.failed + s.shed <= s.admitted,
          "scheduler: completed + failed + shed <= admitted",
          s.completed + s.failed + s.shed, s.admitted);
    check(s.cancelled + s.timed_out <= s.failed,
          "scheduler: cancelled + timed_out <= failed",
          s.cancelled + s.timed_out, s.failed);
    check(s.deadline_missed <= s.completed,
          "scheduler: deadline_missed <= completed", s.deadline_missed,
          s.completed);
    std::uint64_t latency_n = 0;
    for (const LatencyHistogram& h : s.latency) latency_n += h.count();
    check(latency_n == s.completed,
          "scheduler: latency counts sum == completed", latency_n,
          s.completed);
    check(s.coalesced <= s.admitted, "scheduler: coalesced <= admitted",
          s.coalesced, s.admitted);
    check(s.coalesced <= s.digests, "scheduler: coalesced <= digests",
          s.coalesced, s.digests);
    check(s.digests <= s.submitted, "scheduler: digests <= submitted",
          s.digests, s.submitted);
    if (idle) {
      check(s.completed + s.failed + s.shed == s.admitted,
            "scheduler idle: completed + failed + shed == admitted",
            s.completed + s.failed + s.shed, s.admitted);
      check(s.queued == 0, "scheduler idle: queued == 0", s.queued, 0);
      check(s.inflight == 0, "scheduler idle: inflight == 0", s.inflight, 0);
    }
    const WorkspacePool::Stats& w = s.executor.workspaces;
    check(w.free + w.in_flight <= w.created,
          "workspace: free + in_flight <= created", w.free + w.in_flight,
          w.created);
    if (idle)
      check(w.in_flight == 0, "workspace idle: in_flight == 0", w.in_flight, 0);
  }

  check(m.tuner.memo_hits <= m.tuner.lookups,
        "tuner: memo_hits <= lookups", m.tuner.memo_hits, m.tuner.lookups);
  check(m.tuner.db_warm_hits <= m.tuner.memo_hits,
        "tuner: db_warm_hits <= memo_hits", m.tuner.db_warm_hits,
        m.tuner.memo_hits);
  for (const FaultSiteStats& fs : m.faults)
    check(fs.stats.fires <= fs.stats.passes,
          ("fault site " + fs.site + ": fires <= passes").c_str(),
          fs.stats.fires, fs.stats.passes);
  return out;
}

}  // namespace tsv
