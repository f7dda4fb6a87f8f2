// Observability layer tests (core/metrics.hpp): conservation invariants of
// a registry snapshot at idle and under racing submitters, histogram
// quantile accuracy within the log2-bucket error bound, Prometheus text
// exposition validated against the format grammar, JSON well-formedness,
// trace-span lifecycle ordering and ring-buffer semantics, and
// monotone/no-torn-reads snapshots sampled concurrently with live traffic
// (the concurrency paths are TSan-audited by the CI matrix).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tsv/tsv.hpp"

namespace tsv {
namespace {

template <typename T>
T noise(index salt, index lin) {
  return static_cast<T>(0.25 +
                        1e-3 * static_cast<double>((salt * 31 + lin * 7) % 101));
}

Options run_opts(index steps = 4) {
  Options o;
  o.method = Method::kTranspose;
  o.tiling = Tiling::kNone;
  o.steps = steps;
  return o;
}

/// One request's worth of state: an independent grid (distinct salts =
/// distinct content digests = never coalesced).
struct Req {
  std::unique_ptr<Grid1D<double>> grid;
  std::future<Scheduler::Result> fut;

  explicit Req(index salt, index nx = 256) {
    grid = std::make_unique<Grid1D<double>>(nx, 1);
    grid->fill([salt](index x) { return noise<double>(salt, x); });
  }
};

StencilSpec spec1d() { return StencilSpec{.kind = StencilKind::k1d3p}; }

// ---------------------------------------------------------------------------
// Histogram accuracy: the log2 buckets bound every interpolated quantile by
// a factor of 2 of the true order statistic.
// ---------------------------------------------------------------------------

TEST(MetricsHistogram, QuantilesWithinLog2BucketBound) {
  LatencyHistogram h;
  // Deterministic skewed sample: latencies from 10 µs to ~50 ms.
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i)
    v.push_back(10e-6 * std::pow(1.0087, i));  // geometric ramp
  for (double x : v) h.record(x);
  std::sort(v.begin(), v.end());

  EXPECT_EQ(h.count(), v.size());
  double sum = 0.0;
  for (double x : v) sum += x;
  EXPECT_NEAR(h.sum_seconds(), sum, 1e-12 * sum);
  EXPECT_NEAR(h.mean_seconds(), sum / static_cast<double>(v.size()),
              1e-12 * sum);

  for (double q : {0.50, 0.95, 0.99}) {
    const double truth =
        v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
    const double est = h.quantile(q);
    EXPECT_GE(est, truth / 2.0) << "q=" << q;
    EXPECT_LE(est, truth * 2.0) << "q=" << q;
  }
}

TEST(MetricsHistogram, BucketAccessorsAgreeWithCount) {
  LatencyHistogram h;
  h.record(1.5e-6);
  h.record(3e-6);
  h.record(1e-3);
  std::uint64_t total = 0;
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    total += h.bucket_count(b);
    // Upper bounds double per bucket.
    if (b > 0)
      EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_upper_seconds(b),
                       2.0 * LatencyHistogram::bucket_upper_seconds(b - 1));
  }
  EXPECT_EQ(total, h.count());
  EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_upper_seconds(0), 2e-6);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition: validated against the 0.0.4 grammar.
// ---------------------------------------------------------------------------

/// Minimal validating parser for the Prometheus text format. Checks line
/// shapes, name legality, HELP/TYPE-before-samples, numeric values, and
/// histogram structure (cumulative buckets, +Inf == _count, _sum present).
class PromValidator {
 public:
  /// Returns a list of violations (empty = valid).
  static std::vector<std::string> validate(const std::string& page) {
    PromValidator v;
    std::istringstream in(page);
    std::string line;
    int n = 0;
    while (std::getline(in, line)) {
      ++n;
      if (line.empty()) continue;
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0)
        v.header(line, n);
      else if (line[0] == '#')
        continue;  // free-form comment
      else
        v.sample(line, n);
    }
    v.finish();
    return v.errors_;
  }

 private:
  void err(int line, const std::string& what) {
    errors_.push_back("line " + std::to_string(line) + ": " + what);
  }

  static bool name_ok(const std::string& s) {
    if (s.empty()) return false;
    if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_' &&
        s[0] != ':')
      return false;
    for (char c : s)
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':')
        return false;
    return true;
  }

  void header(const std::string& line, int n) {
    std::istringstream is(line);
    std::string hash, kind, name, rest;
    is >> hash >> kind >> name;
    if (!name_ok(name)) err(n, "bad metric name in header: " + name);
    if (kind == "TYPE") {
      is >> rest;
      if (rest != "counter" && rest != "gauge" && rest != "histogram" &&
          rest != "summary" && rest != "untyped")
        err(n, "unknown TYPE " + rest);
      if (types_.count(name)) err(n, "duplicate TYPE for " + name);
      types_[name] = rest;
    } else {
      std::getline(is, rest);
      if (rest.empty()) err(n, "HELP with no text for " + name);
    }
    if (seen_samples_.count(name))
      err(n, "header after samples for " + name);
  }

  void sample(const std::string& line, int n) {
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) return err(n, "sample without value");
    const std::string value = line.substr(sp + 1);
    std::string series = line.substr(0, sp);
    try {
      (void)std::stod(value);
    } catch (...) {
      return err(n, "unparseable value: " + value);
    }
    std::string labels;
    const std::size_t brace = series.find('{');
    if (brace != std::string::npos) {
      if (series.back() != '}') return err(n, "unterminated label set");
      labels = series.substr(brace + 1, series.size() - brace - 2);
      series = series.substr(0, brace);
    }
    if (!name_ok(series)) return err(n, "bad sample name: " + series);
    // Labels: k="v" pairs, comma-separated. Values here never contain
    // escapes or commas, so a split-parse suffices.
    std::string le, labels_sans_le;
    if (!labels.empty()) {
      std::istringstream ls(labels);
      std::string pair;
      while (std::getline(ls, pair, ',')) {
        const std::size_t eq = pair.find("=\"");
        if (eq == std::string::npos || pair.back() != '"')
          return err(n, "malformed label: " + pair);
        if (!name_ok(pair.substr(0, eq)))
          return err(n, "bad label name: " + pair.substr(0, eq));
        if (pair.substr(0, eq) == "le")
          le = pair.substr(eq + 2, pair.size() - eq - 3);
        else
          labels_sans_le += pair + ",";
      }
    }
    // Histogram child series resolve to their family name for TYPE lookup.
    std::string family = series;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (family.size() > s.size() &&
          family.compare(family.size() - s.size(), s.size(), s) == 0 &&
          types_.count(family.substr(0, family.size() - s.size()))) {
        family = family.substr(0, family.size() - s.size());
        break;
      }
    }
    if (!types_.count(family))
      return err(n, "sample without TYPE header: " + series);
    seen_samples_.insert(family);
    if (types_[family] == "histogram") {
      // One cumulative run per (family, label set sans le) — the class
      // label starts a fresh child histogram.
      const std::string key = family + "{" + labels_sans_le + "}";
      if (series == family + "_bucket") {
        const double v = std::stod(value);
        auto& cum = hist_cum_[key];
        if (!cum.empty() && v + 1e-9 < cum.back())
          err(n, "non-cumulative histogram buckets for " + key);
        cum.push_back(v);
        if (le == "+Inf") hist_inf_[key] = v;
        if (le.empty()) err(n, "_bucket without le label");
      } else if (series == family + "_count") {
        hist_count_[key] = std::stod(value);
      } else if (series == family + "_sum") {
        hist_sum_seen_.insert(key);
      }
    }
  }

  void finish() {
    for (const auto& [fam, cnt] : hist_count_) {
      auto it = hist_inf_.find(fam);
      if (it == hist_inf_.end())
        errors_.push_back(fam + ": histogram missing +Inf bucket");
      else if (it->second != cnt)
        errors_.push_back(fam + ": +Inf bucket != _count");
      if (!hist_sum_seen_.count(fam))
        errors_.push_back(fam + ": histogram missing _sum");
    }
  }

  std::vector<std::string> errors_;
  std::map<std::string, std::string> types_;
  std::set<std::string> seen_samples_;
  // Cumulative-bucket tracking. One label set per class is emitted
  // back-to-back, and counts reset per class would trip the monotone check;
  // the emitter orders classes so each class's buckets are contiguous —
  // track per family+reset on _count.
  std::map<std::string, std::vector<double>> hist_cum_;
  std::map<std::string, double> hist_inf_;
  std::map<std::string, double> hist_count_;
  std::set<std::string> hist_sum_seen_;
};

TEST(MetricsProm, ExpositionMatchesGrammar) {
  Scheduler sched({.executor = {.gangs = 2}, .trace_capacity = 8});
  std::vector<Req> reqs;
  for (index i = 0; i < 6; ++i) {
    reqs.emplace_back(i);
    reqs.back().fut = sched.submit(
        {Scheduler::GridRef{reqs.back().grid.get()}, spec1d(), run_opts(),
         i % 2 ? ServiceClass::kBatch : ServiceClass::kInteractive});
  }
  for (Req& r : reqs) r.fut.get();
  sched.wait_idle();

  MetricsRegistry reg;
  reg.attach(&sched);
  const MetricsSnapshot m = reg.snapshot();
  const std::string page = metrics_to_prometheus(m);

  const std::vector<std::string> violations = PromValidator::validate(page);
  for (const std::string& v : violations) ADD_FAILURE() << v;
  // Spot checks: the headline families exist with the right shapes.
  EXPECT_NE(page.find("# TYPE tsv_scheduler_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(page.find("# TYPE tsv_request_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(page.find("tsv_request_latency_seconds_bucket{class=\"interactive"
                      "\",le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(page.find("tsv_executor_gang_tasks_total{via=\"scheduler\","
                      "gang=\"0\"}"),
            std::string::npos);
  // Requests are counted once, in the scheduler ledger.
  EXPECT_EQ(page.find("tsv_executor_submitted_total"), std::string::npos);
  EXPECT_NE(page.find("tsv_tune_trial_executions_total"), std::string::npos);
  EXPECT_NE(page.find("tsv_fault_fires_total{site=\"kernel.sweep\"}"),
            std::string::npos);
}

// Histogram cumulative-bucket check isolated per class: each class's
// bucket run must be monotone even though the page holds both classes.
TEST(MetricsProm, HistogramBucketsCumulativePerClass) {
  Scheduler sched({.executor = {.gangs = 1}});
  Req r(1);
  r.fut = sched.submit({Scheduler::GridRef{r.grid.get()}, spec1d(), run_opts(),
                        ServiceClass::kInteractive});
  r.fut.get();
  sched.wait_idle();
  MetricsRegistry reg;
  reg.attach(&sched);
  const std::string page = metrics_to_prometheus(reg.snapshot());

  std::istringstream in(page);
  std::string line;
  double prev = 0.0;
  std::string prev_class;
  while (std::getline(in, line)) {
    if (line.rfind("tsv_request_latency_seconds_bucket", 0) != 0) continue;
    const std::string cls =
        line.substr(line.find("class=\""), line.find("\",le=") + 1 -
                                               line.find("class=\""));
    if (cls != prev_class) {
      prev = 0.0;
      prev_class = cls;
    }
    const double v = std::stod(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(v, prev) << line;
    prev = v;
  }
}

// ---------------------------------------------------------------------------
// JSON export: structurally sound and carrying the load-bearing sections.
// ---------------------------------------------------------------------------

/// Tiny structural JSON check: balanced braces/brackets outside strings,
/// valid string nesting. Not a full parser — the repo policy is no JSON
/// dependency, and structural balance catches every emitter bug this file
/// has ever had.
bool json_balanced(const std::string& s) {
  std::vector<char> stack;
  bool in_str = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '{' || c == '[') stack.push_back(c);
    else if (c == '}' || c == ']') {
      if (stack.empty()) return false;
      if (c == '}' && stack.back() != '{') return false;
      if (c == ']' && stack.back() != '[') return false;
      stack.pop_back();
    }
  }
  return stack.empty() && !in_str;
}

TEST(MetricsJson, ExportIsBalancedAndSectioned) {
  Scheduler sched({.executor = {.gangs = 1}, .trace_capacity = 4});
  Req r(7);
  r.fut = sched.submit({Scheduler::GridRef{r.grid.get()}, spec1d(), run_opts(),
                        ServiceClass::kBatch});
  r.fut.get();
  sched.wait_idle();
  MetricsRegistry reg;
  reg.attach(&sched);
  const std::string json = metrics_to_json(reg.snapshot());
  EXPECT_TRUE(json_balanced(json)) << json;
  for (const char* key :
       {"\"scheduler\":", "\"executor\":", "\"tuner\":", "\"faults\":",
        "\"latency\":", "\"traces\":", "\"plan_cache\":", "\"workspaces\":",
        "\"db_warm_hits\":"})
    EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(MetricsJson, AbsentSourcesAreOmitted) {
  MetricsRegistry reg;
  const std::string json = metrics_to_json(reg.snapshot());
  EXPECT_TRUE(json_balanced(json));
  EXPECT_EQ(json.find("\"scheduler\":"), std::string::npos);
  EXPECT_NE(json.find("\"tuner\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Conservation invariants: at idle the strict identities hold; under load
// the always-identities hold on every sampled snapshot (no torn reads) and
// the counters are monotone between snapshots.
// ---------------------------------------------------------------------------

TEST(MetricsInvariants, HoldAtIdle) {
  Scheduler sched({.executor = {.gangs = 2}});
  std::vector<Req> reqs;
  for (index i = 0; i < 8; ++i) {
    reqs.emplace_back(100 + i);
    reqs.back().fut = sched.submit({Scheduler::GridRef{reqs.back().grid.get()},
                                    spec1d(), run_opts()});
  }
  for (Req& r : reqs) r.fut.get();
  sched.wait_idle();

  MetricsRegistry reg;
  reg.attach(&sched);
  const MetricsSnapshot m = reg.snapshot();
  for (const std::string& v : metrics_check_invariants(m, /*idle=*/true))
    ADD_FAILURE() << v;
  EXPECT_EQ(m.scheduler.completed, 8u);
  EXPECT_EQ(m.scheduler.submitted, m.scheduler.admitted);
}

TEST(MetricsInvariants, ViolationsAreReported) {
  // A hand-corrupted snapshot must produce violation strings — the checker
  // itself is load-bearing for the chaos suite, so prove it can fail.
  MetricsSnapshot m;
  m.has_scheduler = true;
  m.scheduler.submitted = 5;
  m.scheduler.admitted = 3;  // + rejected 0 != 5
  m.scheduler.completed = 4;  // > admitted at idle
  const auto violations = metrics_check_invariants(m, true);
  EXPECT_FALSE(violations.empty());
  bool saw_admission = false;
  for (const std::string& v : violations)
    if (v.find("admitted + rejected == submitted") != std::string::npos)
      saw_admission = true;
  EXPECT_TRUE(saw_admission);
}

TEST(MetricsInvariants, SnapshotsUnderLoadAreMonotoneAndUntorn) {
  Scheduler sched({.executor = {.gangs = 2}, .trace_capacity = 16});
  MetricsRegistry reg;
  reg.attach(&sched);

  constexpr int kSubmitters = 3;
  constexpr int kPerThread = 12;
  std::vector<std::vector<Req>> lanes(kSubmitters);
  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    auto& lane = lanes[static_cast<std::size_t>(t)];
    lane.reserve(kPerThread);
    threads.emplace_back([&lane, &sched, t] {
      for (int i = 0; i < kPerThread; ++i) {
        lane.emplace_back(1000 + t * 100 + i);
        lane.back().fut =
            sched.submit({Scheduler::GridRef{lane.back().grid.get()}, spec1d(),
                          run_opts(2),
                          i % 2 ? ServiceClass::kBatch
                                : ServiceClass::kInteractive});
      }
      for (Req& r : lane) r.fut.get();
    });
  }

  // Sampler races the submitters: every snapshot must satisfy the
  // always-invariants and be monotone w.r.t. its predecessor.
  std::uint64_t prev_submitted = 0, prev_completed = 0;
  for (int s = 0; s < 50; ++s) {
    const MetricsSnapshot m = reg.snapshot();
    for (const std::string& v : metrics_check_invariants(m, /*idle=*/false))
      ADD_FAILURE() << "snapshot " << s << ": " << v;
    EXPECT_GE(m.scheduler.submitted, prev_submitted) << "torn/regressed read";
    EXPECT_GE(m.scheduler.completed, prev_completed);
    prev_submitted = m.scheduler.submitted;
    prev_completed = m.scheduler.completed;
  }
  for (auto& t : threads) t.join();
  sched.wait_idle();

  const MetricsSnapshot fin = reg.snapshot();
  for (const std::string& v : metrics_check_invariants(fin, /*idle=*/true))
    ADD_FAILURE() << "final: " << v;
  EXPECT_EQ(fin.scheduler.submitted,
            std::uint64_t{kSubmitters} * kPerThread);
}

// ---------------------------------------------------------------------------
// Trace spans: lifecycle ordering, ring-buffer retention, opt-in gating.
// ---------------------------------------------------------------------------

TEST(MetricsTraces, DisabledByDefault) {
  Scheduler sched({.executor = {.gangs = 1}});
  Req r(3);
  r.fut = sched.submit({Scheduler::GridRef{r.grid.get()}, spec1d(), run_opts()});
  r.fut.get();
  sched.wait_idle();
  EXPECT_TRUE(sched.stats().traces.empty());
}

TEST(MetricsTraces, LifecycleOrderedAndRingCapped) {
  constexpr std::size_t kCap = 4;
  Scheduler sched({.executor = {.gangs = 1}, .trace_capacity = kCap});
  for (index i = 0; i < 7; ++i) {
    Req r(50 + i);
    sched
        .submit({Scheduler::GridRef{r.grid.get()}, spec1d(), run_opts(),
                 ServiceClass::kInteractive})
        .get();
  }
  sched.wait_idle();

  const SchedulerStats s = sched.stats();
  ASSERT_EQ(s.traces.size(), kCap) << "ring must cap at trace_capacity";
  double prev_complete = 0.0;
  for (const TraceSpan& t : s.traces) {
    EXPECT_EQ(t.outcome, 'C');
    EXPECT_FALSE(t.coalesced);
    // submit -> dispatch -> sweep -> complete never goes backwards.
    EXPECT_LE(t.submit_s, t.dispatch_s);
    EXPECT_LE(t.dispatch_s, t.sweep_s);
    EXPECT_LE(t.sweep_s, t.complete_s);
    // Oldest-first: completion times non-decreasing across the ring.
    EXPECT_GE(t.complete_s, prev_complete);
    prev_complete = t.complete_s;
  }
  // The ring kept the LAST kCap requests (seq is the admission order).
  EXPECT_EQ(s.traces.front().seq + kCap - 1, s.traces.back().seq);
}

TEST(MetricsTraces, FailureOutcomesAreTagged) {
  Scheduler sched({.executor = {.gangs = 1}, .trace_capacity = 8});
  Req ok(60);
  sched.submit({Scheduler::GridRef{ok.grid.get()}, spec1d(), run_opts()}).get();
  // A cancelled request: cancel before it can dispatch (scheduler paused).
  sched.pause();
  Req doomed(61);
  CancelToken cancel = CancelToken::make();
  Scheduler::Request req{Scheduler::GridRef{doomed.grid.get()}, spec1d(),
                         run_opts()};
  req.cancel = cancel;
  std::future<Scheduler::Result> fut = sched.submit(std::move(req));
  cancel.cancel();
  sched.resume();
  EXPECT_THROW(fut.get(), CancelledError);
  sched.wait_idle();

  const SchedulerStats s = sched.stats();
  ASSERT_EQ(s.traces.size(), 2u);
  EXPECT_EQ(s.traces.front().outcome, 'C');
  EXPECT_EQ(s.traces.back().outcome, 'X');
  for (const std::string& v :
       metrics_check_invariants(
           [&] {
             MetricsRegistry reg;
             reg.attach(&sched);
             return reg.snapshot();
           }(),
           /*idle=*/true))
    ADD_FAILURE() << v;
}

}  // namespace
}  // namespace tsv
