// Streaming-vs-materialized equivalence: for every Table III workload the
// TraceStream pipeline (ApproxMemory publishing kernels into a bounded
// stream while GpuSim consumes them) must produce bit-identical timing
// counters to the materialize-then-replay path, at one sim worker and at
// many. This is the determinism contract the sharded simulator rests on.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/gpu_sim.h"
#include "sim/trace_stream.h"
#include "test_util.h"
#include "workloads/workload.h"

namespace slc {
namespace {

// Runs `name` with its trace flowing through a bounded TraceStream into a
// concurrently-draining GpuSim with `workers` shards.
SimStats streamed_run(const std::string& name, const GpuSimConfig& cfg) {
  GpuSim sim(cfg);
  auto stream = std::make_shared<TraceStream>(cfg.stream_chunk_budget);
  SimStats got;
  std::thread consumer([&] { got = sim.run(*stream); });

  auto wl = make_workload(name, WorkloadScale::kTiny);
  ApproxMemory mem;
  mem.set_trace_sink(stream);
  wl->init(mem);
  mem.commit_all();
  wl->run(mem);
  mem.flush();
  mem.end_trace();
  consumer.join();
  return got;
}

class StreamingSimTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StreamingSimTest, StreamingMatchesMaterializedAtOneAndManyWorkers) {
  const std::vector<KernelTrace> trace = test::materialized_trace(GetParam());
  ASSERT_FALSE(trace.empty());
  GpuSim ref(GpuSimConfig{});
  const SimStats want = ref.run(trace);

  for (const unsigned workers : {1u, 4u}) {
    GpuSimConfig cfg;
    cfg.sim_workers = workers;
    const SimStats got = streamed_run(GetParam(), cfg);
    EXPECT_TRUE(want.same_counters(got))
        << GetParam() << " at sim_workers=" << workers
        << ": streaming replay diverged from the materialized replay";
    EXPECT_EQ(got.kernels, trace.size());
    // Backpressure contract: the bounded stream never held more than its
    // chunk budget.
    ASSERT_GT(cfg.stream_chunk_budget, 0u);
    EXPECT_LE(got.stream_chunk_hwm, cfg.stream_chunk_budget);
  }
}

TEST_P(StreamingSimTest, WorkerCountInvariant) {
  // Two streaming runs of the same workload differing only in shard count
  // must agree on every timing/traffic counter. (Stream watermarks are
  // excluded: peak queue depth depends on producer/consumer scheduling.)
  GpuSimConfig one;
  one.sim_workers = 1;
  GpuSimConfig many;
  many.sim_workers = 4;
  const SimStats a = streamed_run(GetParam(), one);
  const SimStats b = streamed_run(GetParam(), many);
  EXPECT_TRUE(a.same_counters(b)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, StreamingSimTest,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace slc
