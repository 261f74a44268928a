// The repository benchmark: one binary for all workloads.
//
//   slcbench --workload <paper_sweep|serve_write> --seed <n> --seconds <s>
//            --trace <0|1> [--trace-dir <dir>]
//
// Prints a human-readable report, one `meta` JSON line (host and engine
// facts), and as its last line one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// (from a run that records spans) with --trace 1. Exits 1 when an output
// check fails. Workloads, metrics and the layer -> end-to-end map are
// described in NOTES.md beside this file.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "compress/simd_dispatch.h"
#include "workloads/workload.h"

namespace slcbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  if (correct) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  correct = false;
}

namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},           {"sweep_s", "s"},           {"p50_ms", "ms"},
    {"goodput_blk_s", "blk/s"}, {"max_rate_blk_s", "blk/s"},
};

std::vector<MetricDef> per_layer_defs() {
  std::vector<MetricDef> d = {
      {"p99_ms", "ms"},
      {"speedup_gap", "ratio"},
      {"error_gap_pct", "pp"},
      {"setup.train_s", "s"},
      {"workloads.host_s", "s"},
      {"workloads.commit_blocks", "count"},
      {"workloads.lossy_frac", "frac"},
      {"sim.host_s", "s"},
      {"sim.ns_per_access", "ns"},
  };
  for (const std::string& app : slc::workload_names()) d.push_back({"sim.host_s." + app, "s"});
  const std::vector<MetricDef> rest = {
      {"sim.accesses", "count"},
      {"sim.cycles", "count"},
      {"sim.dram_bursts", "count"},
      {"sim.row_hit_frac", "frac"},
      {"sim.l2_hit_frac", "frac"},
      {"sim.mdc_hit_frac", "frac"},
      {"sweep.unattributed_frac", "frac"},
      {"client.late_ms_p99", "ms"},
      {"client.pooled_p99_ms", "ms"},
      {"client.mid_p50_ms", "ms"},
      {"server.submit_us_p50", "us"},
      {"server.submit_us_p99", "us"},
      {"server.latency_p50_ms", "ms"},
      {"server.latency_p99_ms", "ms"},
      {"server.rejected", "count"},
      {"server.deadline_misses", "count"},
      {"server.inflight_blocks_max", "count"},
      {"engine.compress_blk_s", "blk/s"},
      {"compress.compress_blk_s", "blk/s"},
      {"compress.decompress_blk_s", "blk/s"},
      {"trace.overhead_frac", "frac"},
  };
  d.insert(d.end(), rest.begin(), rest.end());
  return d;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string meta_json(const std::map<std::string, std::string>& meta) {
  std::string out = "{";
  for (const auto& [k, v] : meta)
    out += (out.size() > 1 ? ", \"" : "\"") + json_escape(k) + "\": \"" + json_escape(v) + "\"";
  return out + "}";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "slcbench: %s\nusage: slcbench --workload <paper_sweep|serve_write> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (!(o.seconds > 0.0)) usage("--seconds must be positive");
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      if (!o.trace && std::strcmp(v, "0") != 0) usage("--trace takes 0 or 1");
    } else if (a == "--trace-dir") {
      o.trace_dir = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
    if (end && *end) usage(("bad number for " + a).c_str());
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

}  // namespace
}  // namespace slcbench

int main(int argc, char** argv) try {
  using namespace slcbench;
  const Options opt = parse(argc, argv);
  Tracer tracer(opt.trace);
  const Clock::time_point origin = Clock::now();

  Result res;
  if (opt.workload == "paper_sweep")
    res = run_paper_sweep(opt, tracer);
  else if (opt.workload == "serve_write")
    res = run_serve(opt, tracer);
  else
    usage(("unknown workload " + opt.workload).c_str());

  res.meta["workload"] = opt.workload;
  res.meta["seed"] = std::to_string(opt.seed);
  res.meta["seconds"] = json_number(opt.seconds);
  res.meta["trace"] = opt.trace ? "1" : "0";
  res.meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  res.meta["simd_active"] = slc::simd::active_level_name();
  res.meta["build_type"] = SLCBENCH_BUILD_TYPE;
  res.meta["run_s"] = json_number(seconds_between(origin, Clock::now()));

  // Every defined metric is reported; a per-layer metric whose layer the
  // workload does not exercise reads 0.
  const std::vector<MetricDef> defs = opt.trace ? per_layer_defs() : kEndToEnd;
  std::map<std::string, double>& values = opt.trace ? res.per_layer : res.end_to_end;
  std::string metrics;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end() && !opt.trace) {
      std::fprintf(stderr, "slcbench: workload did not report %s\n", d.name.c_str());
      return 1;
    }
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%-28s %16.6f %s\n", d.name.c_str(), v, d.unit.c_str());
    metrics += (metrics.empty() ? "\"" : ", \"") + d.name + "\": {\"value\": " + json_number(v) +
               ", \"unit\": \"" + d.unit + "\"}";
  }
  if (opt.trace && !opt.trace_dir.empty()) {
    const std::string path = opt.trace_dir + "/" + opt.workload + ".spans.tsv";
    if (!tracer.write(path, origin, meta_json(res.meta)))
      std::fprintf(stderr, "slcbench: cannot write %s\n", path.c_str());
    else
      std::printf("spans written to %s\n", path.c_str());
  }
  std::printf("{\"meta\": %s}\n", meta_json(res.meta).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              res.correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "slcbench: %s\n", e.what());
  return 1;
}
