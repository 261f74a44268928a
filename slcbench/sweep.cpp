// paper_sweep: the Fig. 7 configuration as a closed batch. Nine Table III
// apps x {E2MC, TSLC-OPT} at MAG 32 B, threshold 16 B, default GpuSimConfig;
// each run is run_workload() (golden + approximate functional runs) followed
// by GpuSim::run() on the captured trace, as bench/fig7_speedup_error does.
// The inputs are fixed by the generators in src/workloads, so --seed does
// not change them. An untraced run repeats the sweep until --seconds have
// passed and reports medians: one sweep's time moves by up to 10% from the
// next on a shared host. A traced run makes one sweep.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "common/stats.h"
#include "compress/codec_registry.h"
#include "engine/codec_engine.h"
#include "sim/gpu_sim.h"
#include "workloads/workload.h"

namespace slcbench {
namespace {

constexpr size_t kMagBytes = 32;
constexpr size_t kThresholdBytes = 16;
constexpr int kSetupReps = 3;
// Fig. 7 geometric means for TSLC-OPT: speedup over E2MC and application
// error (percent) — the only reference results the repository has.
constexpr double kPaperSpeedup = 1.097;
constexpr double kPaperErrorPct = 0.99;
const char* const kSchemes[] = {"E2MC", "TSLC-OPT"};
// The overhead probe re-runs the cheapest app so a traced run stays short.
const char* const kProbeApp = "TP";

// Trace ids: sweep runs use their index; setup and probe runs sit above.
constexpr uint64_t kSetupTrace = 1000;
constexpr uint64_t kProbeTrace = 2000;

struct AppModel {
  std::vector<uint8_t> image;
  std::shared_ptr<const slc::E2mcCompressor> e2mc;
};

std::map<std::string, AppModel> set_up(Tracer::Lane* lane, uint64_t trace_id) {
  Scope root(lane, "setup", trace_id);
  std::map<std::string, AppModel> out;
  for (const std::string& app : slc::workload_names()) {
    AppModel m;
    {
      Scope s(lane, "setup.image", trace_id, root.id());
      m.image = slc::workload_memory_image(app);
    }
    {
      Scope s(lane, "setup.train", trace_id, root.id());
      m.e2mc = slc::E2mcCompressor::train(m.image, slc::E2mcConfig{});
    }
    out.emplace(app, std::move(m));
  }
  return out;
}

struct RunOut {
  double host_s = 0.0;
  double error_pct = 0.0;
  uint64_t trace_accesses = 0;
  slc::SimStats sim;
  slc::CommitStats commit;
};

RunOut one_run(const std::string& app, const std::string& scheme, const AppModel& model,
               Tracer::Lane* lane, uint64_t trace_id) {
  RunOut out;
  const auto t0 = Clock::now();
  {
    Scope root(lane, "sweep.run", trace_id);
    slc::CodecOptions opts;
    opts.mag_bytes = kMagBytes;
    opts.threshold_bytes = kThresholdBytes;
    opts.training_data = model.image;
    opts.trained_e2mc = model.e2mc;
    const slc::CodecRegistry& reg = slc::CodecRegistry::instance();
    std::shared_ptr<const slc::BlockCodec> codec;
    {
      Scope s(lane, "compress.create_block_codec", trace_id, root.id());
      codec = reg.create_block_codec(scheme, opts);
    }
    slc::WorkloadRunResult wr;
    {
      Scope s(lane, "workloads.run_workload", trace_id, root.id());
      wr = slc::run_workload(app, codec);
    }
    for (const slc::KernelTrace& k : wr.trace) out.trace_accesses += k.accesses.size();
    slc::GpuSimConfig cfg;
    cfg.mag_bytes = kMagBytes;
    cfg.compress_latency = reg.at(scheme).compress_latency;
    cfg.decompress_latency = reg.at(scheme).decompress_latency;
    {
      Scope s(lane, "sim.run", trace_id, root.id());
      slc::GpuSim sim(cfg);
      out.sim = sim.run(wr.trace);
    }
    out.error_pct = wr.error_pct;
    out.commit = wr.stats;
  }
  out.host_s = seconds_between(t0, Clock::now());
  return out;
}

double frac(uint64_t num, uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace

Result run_paper_sweep(const Options& opt, Tracer& tracer) {
  Result res;
  Tracer::Lane* lane = tracer.lane();
  res.meta["inputs"] = "fixed by the generators in src/workloads; --seed unused";
  res.meta["engine_workers"] = std::to_string(slc::CodecEngine::shared_default()->num_threads());
  res.meta["sim_workers"] = std::to_string(slc::GpuSimConfig{}.sim_workers);
  std::printf("paper_sweep: inputs are fixed by the generators in src/workloads "
              "(--seed %llu does not change them)\n",
              static_cast<unsigned long long>(opt.seed));

  std::vector<double> setup_times;
  std::map<std::string, AppModel> models;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    models = set_up(lane, kSetupTrace + static_cast<uint64_t>(r));
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }

  const std::vector<std::string> apps = slc::workload_names();
  slc::PercentileTracker run_ms;
  slc::SimStats sim_total;
  slc::CommitStats commit_all, commit_lossy;
  std::vector<double> speedups, errors, sweep_times;
  std::vector<uint64_t> first_cycles;  // per run of the first sweep
  const auto start = Clock::now();
  do {
    const bool first = sweep_times.empty();
    double sweep_s = 0.0;
    for (size_t a = 0; a < apps.size(); ++a) {
      RunOut base;
      for (size_t k = 0; k < 2; ++k) {
        const std::string scheme = kSchemes[k];
        const std::string what = apps[a] + "/" + scheme;
        const RunOut r = one_run(apps[a], scheme, models.at(apps[a]), lane, 2 * a + k);
        ++res.attempted;
        sweep_s += r.host_s;
        run_ms.record(r.host_s * 1e3);
        bool ok = r.sim.accesses == r.trace_accesses;
        res.check(ok, what + ": SimStats.accesses != trace length");
        if (k == 0) {
          res.check(r.error_pct == 0.0, what + ": lossless run reports nonzero error");
          ok &= r.error_pct == 0.0;
        }
        if (!first) {
          // The simulation is deterministic: a repeated sweep must match.
          const bool same = r.sim.cycles == first_cycles[2 * a + k];
          res.check(same, what + ": repeated sweep simulates a different cycle count");
          ok &= same;
        }
        if (!ok) ++res.failed;
        if (!first) continue;
        // The deterministic statistics come from the first sweep.
        first_cycles.push_back(r.sim.cycles);
        sim_total.merge(r.sim);
        commit_all.merge(r.commit);
        if (k == 0) {
          base = r;
        } else {
          commit_lossy.merge(r.commit);
          speedups.push_back(static_cast<double>(base.sim.cycles) /
                             static_cast<double>(r.sim.cycles));
          errors.push_back(std::max(r.error_pct, 1e-5));
        }
        res.per_layer["sim.cycles"] += static_cast<double>(r.sim.cycles);
        std::printf("  %-6s %-9s host %7.3f s  error %8.4f%%  cycles %llu\n", apps[a].c_str(),
                    scheme.c_str(), r.host_s, r.error_pct,
                    static_cast<unsigned long long>(r.sim.cycles));
      }
    }
    sweep_times.push_back(sweep_s);
    std::printf("sweep %zu: %.3f s\n", sweep_times.size(), sweep_s);
  } while (!tracer.enabled() && seconds_between(start, Clock::now()) < opt.seconds);
  const double gm_speedup = geomean(speedups);
  const double gm_error = geomean(errors);
  std::printf("GM TSLC-OPT speedup over E2MC %.4f (paper %.3f); GM error %.4f%% (paper %.2f%%)\n",
              gm_speedup, kPaperSpeedup, gm_error, kPaperErrorPct);

  res.end_to_end["setup_s"] = median(setup_times);
  const double sweep_s = median(sweep_times);
  res.end_to_end["sweep_s"] = sweep_s;
  res.end_to_end["p50_ms"] = run_ms.percentile(50);
  res.end_to_end["goodput_blk_s"] = static_cast<double>(commit_all.blocks) / sweep_s;
  res.end_to_end["max_rate_blk_s"] = static_cast<double>(sim_total.accesses) / sweep_s;

  auto& L = res.per_layer;
  L["p99_ms"] = run_ms.percentile(99);
  L["speedup_gap"] = std::abs(gm_speedup - kPaperSpeedup);
  L["error_gap_pct"] = std::abs(gm_error - kPaperErrorPct);
  L["workloads.commit_blocks"] = static_cast<double>(commit_all.blocks);
  L["workloads.lossy_frac"] = commit_lossy.lossy_fraction();
  L["sim.accesses"] = static_cast<double>(sim_total.accesses);
  L["sim.dram_bursts"] = static_cast<double>(sim_total.dram_read_bursts +
                                             sim_total.dram_write_bursts +
                                             sim_total.metadata_bursts);
  L["sim.row_hit_frac"] = frac(sim_total.row_hits, sim_total.row_hits + sim_total.row_misses);
  L["sim.l2_hit_frac"] = frac(sim_total.l2_hits, sim_total.l2_hits + sim_total.l2_misses);
  L["sim.mdc_hit_frac"] = frac(sim_total.mdc_hits, sim_total.mdc_hits + sim_total.mdc_misses);

  if (!tracer.enabled()) return res;

  // Per-layer host times from the spans recorded so far (setup + sweep).
  const std::vector<Span> spans = tracer.spans();
  const SpanTimes t = span_times(spans);
  L["setup.train_s"] = t.total.at("setup.train") / kSetupReps;
  L["workloads.host_s"] = t.total.at("workloads.run_workload");
  L["sim.host_s"] = t.total.at("sim.run");
  L["sim.ns_per_access"] = t.total.at("sim.run") / static_cast<double>(sim_total.accesses) * 1e9;
  L["sweep.unattributed_frac"] = t.self.at("sweep.run") / t.total.at("sweep.run");
  for (const Span& s : spans)
    if (s.trace_id < kSetupTrace && std::string(s.name) == "sim.run")
      L["sim.host_s." + apps[s.trace_id / 2]] += seconds_between(s.start, s.end);

  // Tracing overhead: the cheapest app pair, untraced then traced, five
  // times; the median of the per-pair ratios.
  std::vector<double> ratios;
  for (uint64_t r = 0; r < 5; ++r) {
    double secs[2] = {0.0, 0.0};
    for (int with_trace = 0; with_trace < 2; ++with_trace)
      for (size_t k = 0; k < 2; ++k)
        secs[with_trace] += one_run(kProbeApp, kSchemes[k], models.at(kProbeApp),
                                    with_trace ? lane : nullptr, kProbeTrace + 2 * r + k)
                                .host_s;
    ratios.push_back(secs[1] / secs[0]);
  }
  L["trace.overhead_frac"] = median(ratios) - 1.0;
  return res;
}

}  // namespace slcbench
