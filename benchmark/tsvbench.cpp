// tsvbench: runs one workload of the end-to-end benchmark and writes its
// metrics, counters and correctness checks as JSON. benchmark/run.py is the
// command users run; it builds this binary and formats its output.
//
//   tsvbench --workload NAME --seed N --seconds S [--trace]
//            --out FILE [--spans FILE]
//
// With --trace the workload runs with the scheduler's trace ring on and
// spans recorded around every call into a layer, then the machine probe
// and the layer probes run (kernel suite, layer ladder, fits); spans go to
// the --spans file.

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using tsvbench::Result;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out += ch;
  }
  return out + "\"";
}

void write_result(const std::string& path, const tsvbench::RunArgs& a,
                  const Result& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\n\"workload\": %s,\n\"seed\": %llu,\n\"seconds\": %.17g,\n",
               json_string(a.workload).c_str(),
               static_cast<unsigned long long>(a.seed), a.seconds);
  std::fprintf(f, "\"traced\": %s,\n\"correct\": %s,\n", a.trace ? "true" : "false",
               r.wrong.empty() ? "true" : "false");
  std::fprintf(f, "\"attempted\": %llu,\n\"failed\": %llu,\n",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  std::fprintf(f, "\"wrong\": [");
  for (std::size_t i = 0; i < r.wrong.size(); ++i)
    std::fprintf(f, "%s%s", i ? ", " : "", json_string(r.wrong[i]).c_str());
  std::fprintf(f, "],\n\"metrics\": {");
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::fprintf(f, "%s\n  %s: {\"value\": %.17g, \"unit\": %s}", first ? "" : ",",
                 json_string(name).c_str(), m.value, json_string(m.unit).c_str());
    first = false;
  }
  std::fprintf(f, "\n},\n\"info\": {");
  first = true;
  for (const auto& [key, value] : r.info) {
    std::fprintf(f, "%s\n  %s: %s", first ? "" : ",", json_string(key).c_str(),
                 json_string(value).c_str());
    first = false;
  }
  std::fprintf(f, "\n}\n}\n");
  std::fclose(f);
}

int usage() {
  std::fprintf(stderr,
               "usage: tsvbench --workload NAME --seed N --seconds S [--trace] "
               "--out FILE [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  tsvbench::RunArgs a;
  std::string out, spans;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      a.trace = true;
    } else if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--out" && has_value) {
      out = argv[++i];
    } else if (arg == "--spans" && has_value) {
      spans = argv[++i];
    } else {
      return usage();
    }
  }
  if (a.workload.empty() || out.empty() || !(a.seconds > 0.0) ||
      (a.trace && spans.empty()))
    return usage();

  try {
    Result r;
    tsvbench::Tracer tracer(a.trace);
    r.note("isa", tsv::isa_name(tsv::best_isa()));
    r.note("logical_cores", static_cast<double>(tsv::cpu_info().logical_cores));
    const tsvbench::LadderSpec ladder = tsvbench::run_workload(a, r, tracer);
    // Peak memory of the workload alone: the probes below allocate more.
    r.set("peak_rss_mb", tsvbench::peak_rss_mb(), "MB");
    if (a.trace) {
      const tsvbench::Machine m = tsvbench::probe_machine(r);
      const bool serving =
          a.workload == "serve_small" || a.workload == "serve_tiled";
      tsvbench::probe_layers(ladder, m, a.seed, !serving, r, tracer);
      tracer.write(spans);
    }
    write_result(out, a, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tsvbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
