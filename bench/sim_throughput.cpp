// GpuSim trace-replay throughput: materialized vs streaming, 1 vs N sim
// workers (no paper figure — it validates the streaming pipeline the
// workload harness feeds and the sharded memory-controller replay).
//
// Four wall-time rows replay the same synthetic multi-channel trace:
//   materialized          — run(vector), 1 worker: the baseline path
//   streaming             — bounded TraceStream + producer thread, 1 worker
//   materialized-sharded  — run(vector), min(hw threads, num_mcs) workers
//   streaming-sharded     — bounded stream + sharded replay (the pipeline)
// plus one footprint row whose `speedup` is the peak-trace-footprint
// reduction: materialized access high-water (the whole trace, resident at
// once) over the streaming high-water (bounded by stream_chunk_budget
// kernels). That ratio is what CI gates against
// bench/baselines/BENCH_sim.json — it is a property of the backpressure
// contract and transfers across hosts, unlike the sharded wall-time
// speedup, which follows the engine_throughput precedent: reported in the
// artifact with a zeroed baseline because it tracks the host. Measured on a
// 4-core AVX2 host (4 shards, num_mcs = 12), materialized -> streaming-
// sharded: 1.3x while each channel step rescanned the scheduler window,
// 0.63x (0.76 -> 0.48 Mblk/s) once the channel step became O(banks) — the
// per-step barrier now costs more than the channel work it splits.
//
// The binary self-checks the determinism contract before reporting: all
// four replays must agree on every timing/traffic counter
// (SimStats::same_counters) and every bounded streaming run must keep its
// chunk high-water mark within the budget — a violation exits non-zero, so
// the perf job fails even if the gate rows look healthy.
//
// Usage: sim_throughput [kernels] [blocks_per_kernel] [--json[=path]]
//   defaults: 64 kernels x 4000 blocks, bare --json writes BENCH_sim.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "sim/trace_stream.h"

using namespace slc;
using namespace slc::bench;

namespace {

// Heavy, channel-spanning DRAM traffic: low compute per access and full-line
// bursts keep the replay memory-bound, so the per-channel MC work — the part
// the shards parallelize — dominates each simulated cycle.
std::vector<KernelTrace> synthetic_trace(size_t kernels, size_t blocks_per_kernel) {
  std::vector<KernelTrace> trace;
  trace.reserve(kernels);
  for (size_t k = 0; k < kernels; ++k) {
    KernelTrace kt;
    kt.name = "synth" + std::to_string(k);
    kt.compute_per_access = 0.25;
    kt.accesses_per_cta = 8;
    kt.accesses.reserve(blocks_per_kernel);
    for (size_t i = 0; i < blocks_per_kernel; ++i) {
      TraceAccess a;
      a.addr = (0x1000'0000ull + k * 0x100'0000ull) + i * kBlockBytes;
      a.bursts = 4;
      a.write = (i % 4 == 3);
      kt.accesses.push_back(a);
    }
    trace.push_back(std::move(kt));
  }
  return trace;
}

GpuSimConfig sim_config(unsigned workers) {
  GpuSimConfig cfg;
  cfg.num_mcs = 12;  // multi-channel: one shard per channel has work to own
  cfg.decompress_latency = 20;
  cfg.sim_workers = workers;
  return cfg;
}

SimStats replay_materialized(const std::vector<KernelTrace>& trace, unsigned workers) {
  GpuSim sim(sim_config(workers));  // fresh sim: identical cold caches per run
  return sim.run(trace);
}

SimStats replay_streaming(const std::vector<KernelTrace>& trace, unsigned workers,
                          size_t budget) {
  GpuSim sim(sim_config(workers));
  TraceStream stream(budget);
  std::thread producer([&] {
    // Aliased borrows, same as the materialized adapter: the bench times the
    // pipeline, not kernel copies.
    for (const KernelTrace& k : trace)
      if (!stream.push(std::shared_ptr<const KernelTrace>(std::shared_ptr<const void>(), &k)))
        return;
    stream.close();
  });
  const SimStats out = sim.run(stream);
  producer.join();
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  const std::string json_path = parse_json_flag(argc, argv, "BENCH_sim.json");
  const size_t kernels = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 64;
  const size_t blocks = argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 4000;

  print_banner("Sim throughput — streaming trace replay, sharded memory controllers",
               "streaming pipeline validation (no paper figure)");

  const GpuSimConfig cfg = sim_config(1);
  const size_t budget = cfg.stream_chunk_budget;
  const unsigned sharded_workers = std::max(
      1u, std::min<unsigned>(std::thread::hardware_concurrency(), cfg.num_mcs));
  const auto trace = synthetic_trace(kernels, blocks);
  const size_t accesses = kernels * blocks;
  std::printf(
      "trace: %zu kernels x %zu blocks (%zu accesses), %u DRAM channels,\n"
      "chunk budget %zu, sharded rows use %u worker(s) (host concurrency %u)\n\n",
      kernels, blocks, accesses, cfg.num_mcs, budget, sharded_workers,
      std::thread::hardware_concurrency());

  // Determinism + footprint self-checks (fresh sims, cold caches everywhere).
  const SimStats want = replay_materialized(trace, 1);
  struct Check {
    const char* what;
    SimStats got;
    bool bounded;  ///< consumed a budget-bounded stream
  };
  const Check checks[] = {
      {"streaming workers=1", replay_streaming(trace, 1, budget), true},
      {"materialized-sharded", replay_materialized(trace, sharded_workers), false},
      {"streaming-sharded", replay_streaming(trace, sharded_workers, budget), true},
  };
  for (const Check& c : checks) {
    if (!want.same_counters(c.got)) {
      std::printf("FATAL: %s diverged from the materialized 1-worker reference\n", c.what);
      return 1;
    }
    if (c.bounded && c.got.stream_chunk_hwm > budget) {
      std::printf("FATAL: %s queued %llu chunks against a budget of %zu\n", c.what,
                  static_cast<unsigned long long>(c.got.stream_chunk_hwm), budget);
      return 1;
    }
  }
  std::printf("All replay modes reproduced the reference counters; bounded streams\n");
  std::printf("never exceeded the %zu-chunk budget.\n\n", budget);

  BenchReport report("sim_throughput");
  constexpr size_t kReps = 3;
  Measurement base = measure_kernel("SIM", "replay", "materialized", accesses, kReps,
                                    [&] { replay_materialized(trace, 1); });
  Measurement stream1 = measure_kernel("SIM", "replay", "streaming", accesses, kReps,
                                       [&] { replay_streaming(trace, 1, budget); });
  Measurement mat_n =
      measure_kernel("SIM", "replay", "materialized-sharded", accesses, kReps,
                     [&] { replay_materialized(trace, sharded_workers); });
  Measurement stream_n =
      measure_kernel("SIM", "replay", "streaming-sharded", accesses, kReps,
                     [&] { replay_streaming(trace, sharded_workers, budget); });
  // Wall-time speedups vs the materialized 1-worker baseline. Machine-
  // dependent (they track core count), so the committed baseline zeroes
  // them and CI gates only the footprint row below.
  stream1.speedup = base.p50_ms / stream1.p50_ms;
  mat_n.speedup = base.p50_ms / mat_n.p50_ms;
  stream_n.speedup = base.p50_ms / stream_n.p50_ms;
  report.add(base);
  report.add(stream1);
  report.add(mat_n);
  report.add(stream_n);

  // The gated row: peak trace-buffer footprint, materialized over streaming.
  // run(vector) reports the whole trace as its high-water mark; the bounded
  // stream holds at most `budget` kernels, so the reduction is >= kernels /
  // budget regardless of host speed or scheduling.
  const SimStats streamed = checks[0].got;
  Measurement footprint;
  footprint.scheme = "SIM";
  footprint.kernel = "footprint";
  footprint.path = "streaming";
  footprint.blocks = static_cast<size_t>(streamed.stream_access_hwm);
  footprint.reps = 1;
  footprint.speedup = streamed.stream_access_hwm > 0
                          ? static_cast<double>(want.stream_access_hwm) /
                                static_cast<double>(streamed.stream_access_hwm)
                          : 0.0;
  report.add(footprint);

  report.set_meta("kernels", std::to_string(kernels));
  report.set_meta("blocks_per_kernel", std::to_string(blocks));
  report.set_meta("num_mcs", std::to_string(cfg.num_mcs));
  report.set_meta("sharded_workers", std::to_string(sharded_workers));
  report.set_meta("chunk_budget", std::to_string(budget));
  report.set_meta("materialized_access_hwm", std::to_string(want.stream_access_hwm));
  report.set_meta("streaming_access_hwm", std::to_string(streamed.stream_access_hwm));
  report.set_meta("streaming_chunk_hwm", std::to_string(streamed.stream_chunk_hwm));

  std::printf("%s\n", report.table().to_string().c_str());
  std::printf("footprint row: `blocks` is the streaming peak access footprint and\n");
  std::printf("`speedup` the reduction vs materializing the whole trace (>= %zu by\n",
              kernels / std::max<size_t>(budget, 1));
  std::printf("construction at this kernel count / budget) — the row CI gates.\n");
  std::printf("Wall-time sharded rows are host-dependent and not gated. On a 4-core\n");
  std::printf("AVX2 host, materialized->streaming-sharded measured ~0.6x: each\n");
  std::printf("channel step is too cheap for the per-step barrier to pay off.\n");

  if (!json_path.empty() && !report.write_json(json_path)) return 1;
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "sim_throughput: %s\n", e.what());
  return 1;
}
