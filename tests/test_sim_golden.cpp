// Golden SimStats: every counter of a default-config replay of each Table
// III workload, pinned at WorkloadScale::kTiny. The other sim suites compare
// the simulator with itself (streaming vs materialized, reused vs fresh);
// this one fails when a change to the model moves any counter at all.
// Update the table only with a deliberate, documented change to the model's
// timing.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "sim/gpu_sim.h"
#include "test_util.h"
#include "workloads/workload.h"

namespace slc {
namespace {

struct Golden {
  const char* workload;
  SimStats want;
};

// Without this gtest prints the raw bytes of the struct, workload pointer
// included, so the listed test names would move with every relink.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.workload; }

const Golden kGolden[] = {
    {"JM",
     {.cycles = 856, .kernels = 1, .accesses = 1168, .reads = 1152, .writes = 16,
      .l1_hits = 0, .l1_misses = 1152, .l2_hits = 0, .l2_misses = 1152,
      .l2_writebacks = 0, .dram_read_bursts = 4608, .dram_write_bursts = 0,
      .metadata_bursts = 30, .mdc_hits = 1122, .mdc_misses = 30, .row_hits = 1098,
      .row_misses = 84, .decompressions = 0, .compressions = 0,
      .stream_chunk_hwm = 1, .stream_access_hwm = 1168}},
    {"BS",
     {.cycles = 590, .kernels = 1, .accesses = 1280, .reads = 768, .writes = 512,
      .l1_hits = 0, .l1_misses = 768, .l2_hits = 0, .l2_misses = 768,
      .l2_writebacks = 0, .dram_read_bursts = 3072, .dram_write_bursts = 0,
      .metadata_bursts = 18, .mdc_hits = 750, .mdc_misses = 18, .row_hits = 726,
      .row_misses = 60, .decompressions = 0, .compressions = 0,
      .stream_chunk_hwm = 1, .stream_access_hwm = 1280}},
    {"DCT",
     {.cycles = 245, .kernels = 1, .accesses = 256, .reads = 128, .writes = 128,
      .l1_hits = 0, .l1_misses = 128, .l2_hits = 0, .l2_misses = 128,
      .l2_writebacks = 0, .dram_read_bursts = 512, .dram_write_bursts = 0,
      .metadata_bursts = 6, .mdc_hits = 122, .mdc_misses = 6, .row_hits = 116,
      .row_misses = 18, .decompressions = 0, .compressions = 0,
      .stream_chunk_hwm = 1, .stream_access_hwm = 256}},
    {"FWT",
     {.cycles = 669, .kernels = 3, .accesses = 1536, .reads = 768, .writes = 768,
      .l1_hits = 0, .l1_misses = 768, .l2_hits = 512, .l2_misses = 256,
      .l2_writebacks = 0, .dram_read_bursts = 1024, .dram_write_bursts = 0,
      .metadata_bursts = 6, .mdc_hits = 250, .mdc_misses = 6, .row_hits = 238,
      .row_misses = 24, .decompressions = 0, .compressions = 0,
      .stream_chunk_hwm = 3, .stream_access_hwm = 1536}},
    {"TP",
     {.cycles = 245, .kernels = 1, .accesses = 256, .reads = 128, .writes = 128,
      .l1_hits = 0, .l1_misses = 128, .l2_hits = 0, .l2_misses = 128,
      .l2_writebacks = 0, .dram_read_bursts = 512, .dram_write_bursts = 0,
      .metadata_bursts = 6, .mdc_hits = 122, .mdc_misses = 6, .row_hits = 116,
      .row_misses = 18, .decompressions = 0, .compressions = 0,
      .stream_chunk_hwm = 1, .stream_access_hwm = 256}},
    {"BP",
     {.cycles = 4679, .kernels = 2, .accesses = 10496, .reads = 6400, .writes = 4096,
      .l1_hits = 0, .l1_misses = 6400, .l2_hits = 1260, .l2_misses = 5140,
      .l2_writebacks = 1024, .dram_read_bursts = 20560, .dram_write_bursts = 4096,
      .metadata_bursts = 102, .mdc_hits = 5038, .mdc_misses = 102, .row_hits = 5784,
      .row_misses = 482, .decompressions = 0, .compressions = 1024,
      .stream_chunk_hwm = 2, .stream_access_hwm = 10496}},
    {"NN",
     {.cycles = 810, .kernels = 1, .accesses = 1536, .reads = 1024, .writes = 512,
      .l1_hits = 0, .l1_misses = 1024, .l2_hits = 0, .l2_misses = 1024,
      .l2_writebacks = 0, .dram_read_bursts = 4096, .dram_write_bursts = 0,
      .metadata_bursts = 24, .mdc_hits = 1000, .mdc_misses = 24, .row_hits = 976,
      .row_misses = 72, .decompressions = 0, .compressions = 0,
      .stream_chunk_hwm = 1, .stream_access_hwm = 1536}},
    {"SRAD1",
     {.cycles = 765, .kernels = 6, .accesses = 3840, .reads = 1792, .writes = 2048,
      .l1_hits = 0, .l1_misses = 1792, .l2_hits = 1664, .l2_misses = 128,
      .l2_writebacks = 0, .dram_read_bursts = 512, .dram_write_bursts = 0,
      .metadata_bursts = 6, .mdc_hits = 122, .mdc_misses = 6, .row_hits = 116,
      .row_misses = 18, .decompressions = 0, .compressions = 0,
      .stream_chunk_hwm = 6, .stream_access_hwm = 3840}},
    {"SRAD2",
     {.cycles = 588, .kernels = 4, .accesses = 3072, .reads = 1536, .writes = 1536,
      .l1_hits = 0, .l1_misses = 1536, .l2_hits = 1408, .l2_misses = 128,
      .l2_writebacks = 0, .dram_read_bursts = 512, .dram_write_bursts = 0,
      .metadata_bursts = 6, .mdc_hits = 122, .mdc_misses = 6, .row_hits = 116,
      .row_misses = 18, .decompressions = 0, .compressions = 0,
      .stream_chunk_hwm = 4, .stream_access_hwm = 3072}},
};

TEST(SimGolden, TableCoversEveryWorkload) {
  std::vector<std::string> pinned;
  for (const Golden& g : kGolden) pinned.emplace_back(g.workload);
  EXPECT_EQ(pinned, workload_names());
}

class SimGoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(SimGoldenTest, DefaultConfigCountersUnchanged) {
  const std::vector<KernelTrace> trace = test::materialized_trace(GetParam().workload);
  GpuSim sim(GpuSimConfig{});
  EXPECT_EQ(sim.run(trace), GetParam().want);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SimGoldenTest, ::testing::ValuesIn(kGolden),
                         [](const auto& info) { return std::string(info.param.workload); });

}  // namespace
}  // namespace slc
