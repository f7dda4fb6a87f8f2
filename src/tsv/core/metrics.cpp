#include "tsv/core/metrics.hpp"

#include <cstdio>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

namespace tsv {

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot m;
  if (scheduler_ != nullptr) {
    m.has_scheduler = true;
    m.scheduler = scheduler_->stats();
  }
  if (executor_ != nullptr) {
    m.has_executor = true;
    m.executor = executor_->stats();
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
  os << "{\"submitted\":" << e.submitted << ",\"completed\":" << e.completed
     << ",\"failed\":" << e.failed << ",\"queue_depth\":" << e.queue_depth
     << ",\"uptime_seconds\":" << fmt_double(e.uptime_seconds)
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
       << ",\"coalesced\":" << s.coalesced << ",\"completed\":" << s.completed
       << ",\"failed\":" << s.failed
       << ",\"deadline_missed\":" << s.deadline_missed
       << ",\"retries\":" << s.retries
       << ",\"retry_exhausted\":" << s.retry_exhausted
       << ",\"cancelled\":" << s.cancelled << ",\"timed_out\":" << s.timed_out
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
  if (m.has_executor) {
    section("executor");
    json_executor(os, m.executor);
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

void prom_executor(std::ostringstream& os,
                   const std::vector<std::pair<std::string, const ExecutorStats*>>& srcs) {
  const auto family = [&](const char* name, const char* type,
                          const char* help) {
    return PromFamily(os, name, type, help);
  };
  const auto emit = [&](const char* name, const char* type, const char* help,
                        auto field) {
    PromFamily f = family(name, type, help);
    for (const auto& [via, e] : srcs) f.sample(field(*e), label("via", via));
  };
  emit("tsv_executor_submitted_total", "counter",
       "Requests handed to the executor pool.",
       [](const ExecutorStats& e) { return e.submitted; });
  emit("tsv_executor_completed_total", "counter",
       "Executor requests finished successfully.",
       [](const ExecutorStats& e) { return e.completed; });
  emit("tsv_executor_failed_total", "counter",
       "Executor requests finished by raising into the future.",
       [](const ExecutorStats& e) { return e.failed; });
  emit("tsv_executor_queue_depth", "gauge",
       "Tasks waiting for a gang.",
       [](const ExecutorStats& e) { return std::uint64_t(e.queue_depth); });
  emit("tsv_executor_uptime_seconds", "gauge",
       "Wall time since executor construction.",
       [](const ExecutorStats& e) { return e.uptime_seconds; });
  emit("tsv_executor_utilization", "gauge",
       "Whole-pool busy fraction in [0,1].",
       [](const ExecutorStats& e) { return utilization(e); });
  {
    PromFamily f = family("tsv_executor_gang_tasks_total", "counter",
                          "Tasks run, per gang.");
    for (const auto& [via, e] : srcs)
      for (std::size_t g = 0; g < e->gangs.size(); ++g)
        f.sample(e->gangs[g].tasks,
                 "{via=\"" + via + "\",gang=\"" + std::to_string(g) + "\"}");
  }
  {
    PromFamily f = family("tsv_executor_gang_busy_seconds_total", "counter",
                          "Wall time spent inside tasks, per gang.");
    for (const auto& [via, e] : srcs)
      for (std::size_t g = 0; g < e->gangs.size(); ++g)
        f.sample(e->gangs[g].busy_seconds,
                 "{via=\"" + via + "\",gang=\"" + std::to_string(g) + "\"}");
  }
  emit("tsv_plan_cache_hits_total", "counter", "Plan cache lookups served.",
       [](const ExecutorStats& e) { return e.plan_cache.hits; });
  emit("tsv_plan_cache_misses_total", "counter",
       "Plan cache lookups that built a plan.",
       [](const ExecutorStats& e) { return e.plan_cache.misses; });
  emit("tsv_plan_cache_evictions_total", "counter",
       "Plans evicted by capacity.",
       [](const ExecutorStats& e) { return e.plan_cache.evictions; });
  emit("tsv_plan_cache_entries", "gauge", "Plans currently cached.",
       [](const ExecutorStats& e) { return std::uint64_t(e.plan_cache.entries); });
  emit("tsv_workspace_created_total", "counter",
       "Workspaces constructed on empty-pool checkouts.",
       [](const ExecutorStats& e) { return e.workspaces.created; });
  emit("tsv_workspace_reused_total", "counter",
       "Checkouts served from the free list.",
       [](const ExecutorStats& e) { return e.workspaces.reused; });
  emit("tsv_workspace_free", "gauge", "Workspaces parked in pools.",
       [](const ExecutorStats& e) { return std::uint64_t(e.workspaces.free); });
  emit("tsv_workspace_in_flight", "gauge", "Live workspace leases.",
       [](const ExecutorStats& e) { return std::uint64_t(e.workspaces.in_flight); });
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
    gauge("tsv_scheduler_queued", "Coalesce groups waiting in the queue.",
          s.queued);
    gauge("tsv_scheduler_inflight", "Groups handed to the executor.",
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
  {
    std::vector<std::pair<std::string, const ExecutorStats*>> srcs;
    if (m.has_scheduler) srcs.emplace_back("scheduler", &m.scheduler.executor);
    if (m.has_executor) srcs.emplace_back("direct", &m.executor);
    if (!srcs.empty()) prom_executor(os, srcs);
  }
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

  const auto check_executor = [&](const ExecutorStats& e, const char* who) {
    const std::string w(who);
    check(e.completed + e.failed <= e.submitted,
          (w + " executor: completed + failed <= submitted").c_str(),
          e.completed + e.failed, e.submitted);
    check(e.workspaces.free + e.workspaces.in_flight <= e.workspaces.created,
          (w + " executor: workspace free + in_flight <= created").c_str(),
          e.workspaces.free + e.workspaces.in_flight, e.workspaces.created);
    // Gang tasks count at dequeue; completed/failed land at the end of the
    // run — so tasks can lead under load and match only when quiesced.
    std::uint64_t gang_tasks = 0;
    for (const GangStats& g : e.gangs) gang_tasks += g.tasks;
    check(e.completed + e.failed <= gang_tasks,
          (w + " executor: completed + failed <= gang tasks").c_str(),
          e.completed + e.failed, gang_tasks);
    if (idle) {
      check(gang_tasks == e.completed + e.failed,
            (w + " executor idle: gang tasks == completed + failed").c_str(),
            gang_tasks, e.completed + e.failed);
      check(e.completed + e.failed == e.submitted,
            (w + " executor idle: completed + failed == submitted").c_str(),
            e.completed + e.failed, e.submitted);
      check(e.queue_depth == 0, (w + " executor idle: queue_depth == 0").c_str(),
            e.queue_depth, 0);
      check(e.workspaces.in_flight == 0,
            (w + " executor idle: workspace in_flight == 0").c_str(),
            e.workspaces.in_flight, 0);
    }
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
    if (idle) {
      check(s.completed + s.failed + s.shed == s.admitted,
            "scheduler idle: completed + failed + shed == admitted",
            s.completed + s.failed + s.shed, s.admitted);
      check(s.queued == 0, "scheduler idle: queued == 0", s.queued, 0);
      check(s.inflight == 0, "scheduler idle: inflight == 0", s.inflight, 0);
    }
    check_executor(s.executor, "scheduler's");
  }
  if (m.has_executor) check_executor(m.executor, "direct");

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
