// GDDR5 channel: FR-FCFS, row hits, bus occupancy in beats.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "reference_dram.h"
#include "sim/dram.h"
#include "test_util.h"

namespace slc {
namespace {

struct DramFixture : ::testing::Test {
  GpuSimConfig cfg;
  SimStats stats;

  // Runs the channel until all completions appear or `limit` cycles pass.
  std::vector<DramCompletion> drain(DramChannel& ch, size_t expect, uint64_t limit = 100000) {
    std::vector<DramCompletion> out;
    for (uint64_t cycle = 0; cycle < limit && out.size() < expect; ++cycle) {
      ch.tick(cycle);
      auto& comps = ch.completions();
      while (!comps.empty() && comps.front().finish_cycle <= cycle) {
        out.push_back(comps.front());
        comps.pop_front();
      }
    }
    return out;
  }
};

TEST_F(DramFixture, SingleReadCompletes) {
  DramChannel ch(cfg, stats);
  DramRequest r;
  r.addr = 0x1000;
  r.bursts = 4;
  r.tag = 7;
  ch.push_read(r);
  const auto done = drain(ch, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].tag, 7u);
  // First access: activate (tRCD) + CAS (tCL) + 2 cycles data (4 bursts,
  // 8 beats, 2/cycle).
  EXPECT_GE(done[0].finish_cycle, cfg.t_rcd + cfg.t_cl + 2u);
  EXPECT_EQ(stats.dram_read_bursts, 4u);
  EXPECT_EQ(stats.row_misses, 1u);
}

TEST_F(DramFixture, RowHitsForSequentialBlocks) {
  DramChannel ch(cfg, stats);
  for (int i = 0; i < 8; ++i) {
    DramRequest r;
    r.addr = 0x1000 + static_cast<uint64_t>(i) * 128;  // same 2 KB row
    r.bursts = 4;
    r.tag = static_cast<uint64_t>(i);
    ch.push_read(r);
  }
  drain(ch, 8);
  EXPECT_EQ(stats.row_misses, 1u);
  EXPECT_EQ(stats.row_hits, 7u);
}

TEST_F(DramFixture, FewerBurstsFinishFaster) {
  SimStats s1, s2;
  DramChannel full(cfg, s1), comp(cfg, s2);
  DramRequest a;
  a.addr = 0;
  a.bursts = 4;
  a.tag = 0;
  DramRequest b = a;
  b.bursts = 1;
  full.push_read(a);
  comp.push_read(b);
  const auto d1 = drain(full, 1);
  const auto d2 = drain(comp, 1);
  EXPECT_LT(d2[0].finish_cycle, d1[0].finish_cycle);
}

TEST_F(DramFixture, BusSerializesBackToBackTransfers) {
  DramChannel ch(cfg, stats);
  for (int i = 0; i < 16; ++i) {
    DramRequest r;
    r.addr = 0x2000 + static_cast<uint64_t>(i) * 128;
    r.bursts = 4;
    r.tag = static_cast<uint64_t>(i);
    ch.push_read(r);
  }
  const auto done = drain(ch, 16);
  ASSERT_EQ(done.size(), 16u);
  // 16 blocks x 4 bursts x 2 beats/burst... = 128 beats / 2 per cycle = 64
  // data cycles minimum spread.
  uint64_t last = 0;
  for (const auto& d : done) last = std::max(last, d.finish_cycle);
  EXPECT_GE(last, 64u);
}

TEST_F(DramFixture, WritesDrainWhenNoReads) {
  DramChannel ch(cfg, stats);
  DramRequest w;
  w.addr = 0x3000;
  w.bursts = 4;
  w.write = true;
  w.tag = 1;
  ch.push_write(w);
  const auto done = drain(ch, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].write);
  EXPECT_EQ(stats.dram_write_bursts, 4u);
}

TEST_F(DramFixture, ReadsHavePriorityOverWrites) {
  DramChannel ch(cfg, stats);
  for (int i = 0; i < 4; ++i) {
    DramRequest w;
    w.addr = 0x8000 + static_cast<uint64_t>(i) * 128;
    w.bursts = 4;
    w.write = true;
    w.tag = 100 + static_cast<uint64_t>(i);
    ch.push_write(w);
  }
  DramRequest r;
  r.addr = 0x100;
  r.bursts = 4;
  r.tag = 1;
  ch.push_read(r);
  const auto done = drain(ch, 5);
  ASSERT_EQ(done.size(), 5u);
  EXPECT_EQ(done[0].tag, 1u) << "the read must finish before the writes";
}

TEST_F(DramFixture, MetadataCountsSeparately) {
  DramChannel ch(cfg, stats);
  DramRequest m;
  m.addr = 0x9000;
  m.bursts = 1;
  m.metadata = true;
  m.tag = 2;
  ch.push_read(m);
  drain(ch, 1);
  EXPECT_EQ(stats.metadata_bursts, 1u);
  EXPECT_EQ(stats.dram_read_bursts, 0u);
}

TEST_F(DramFixture, MagScalesBeatCount) {
  GpuSimConfig cfg64 = cfg;
  cfg64.mag_bytes = 64;
  SimStats s64;
  DramChannel ch(cfg64, s64);
  DramRequest r;
  r.addr = 0;
  r.bursts = 2;  // 2 x 64 B = 8 beats = 4 cycles
  r.tag = 0;
  ch.push_read(r);
  const auto done = drain(ch, 1);
  EXPECT_GE(done[0].finish_cycle, cfg.t_rcd + cfg.t_cl + 4u);
}

// Regression: next_event_cycle used to min over *every* bank, and idle banks
// sit at ready_cycle 0 — so a busy channel could never fast-forward past
// now + 1. The next event must come from the banks queued requests actually
// target (and the bus), letting a quiet channel skip ahead.
TEST_F(DramFixture, NextEventSkipsAheadWhileTargetBankBusy) {
  DramChannel ch(cfg, stats);
  for (int i = 0; i < 2; ++i) {
    DramRequest r;
    r.addr = 0x1000 + static_cast<uint64_t>(i) * 128;  // same row, same bank
    r.bursts = 4;
    r.tag = static_cast<uint64_t>(i);
    ch.push_read(r);
  }
  ch.tick(0);  // issues the first request; its bank is busy until the data phase ends
  const uint64_t nxt = ch.next_event_cycle(0);
  // First access: tRCD + tCL + 4 transfer cycles (4 bursts, 8 beats, 2/cycle).
  const uint64_t busy_until = cfg.t_rcd + cfg.t_cl + 4u;
  EXPECT_GT(nxt, 1u) << "a quiet channel must skip more than one cycle";
  EXPECT_EQ(nxt, busy_until);
  // The skip must not overshoot: the channel still completes both requests.
  const auto done = drain(ch, 2);
  EXPECT_EQ(done.size(), 2u);
}

TEST_F(DramFixture, NextEventIdleChannelHasNoEvent) {
  DramChannel ch(cfg, stats);
  EXPECT_EQ(ch.next_event_cycle(0), UINT64_MAX);
  EXPECT_EQ(ch.next_event_cycle(12345), UINT64_MAX);
}

TEST_F(DramFixture, NextEventImmediateWhenTargetBankReady) {
  DramChannel ch(cfg, stats);
  DramRequest r;
  r.addr = 0x1000;
  r.bursts = 4;
  ch.push_read(r);
  // Nothing issued yet and the target bank is idle: the next event is the
  // very next cycle.
  EXPECT_EQ(ch.next_event_cycle(7), 8u);
}

TEST_F(DramFixture, BankConflictSlowerThanParallelBanks) {
  // Same bank, different rows -> serialized precharge/activate.
  SimStats s_conflict;
  DramChannel conflict(cfg, s_conflict);
  const uint64_t bank_stride = cfg.row_bytes * cfg.banks_per_mc;
  for (int i = 0; i < 4; ++i) {
    DramRequest r;
    r.addr = static_cast<uint64_t>(i) * bank_stride;  // same bank, new row
    r.bursts = 1;
    r.tag = static_cast<uint64_t>(i);
    conflict.push_read(r);
  }
  SimStats s_par;
  DramChannel parallel(cfg, s_par);
  for (int i = 0; i < 4; ++i) {
    DramRequest r;
    r.addr = static_cast<uint64_t>(i) * cfg.row_bytes;  // different banks
    r.bursts = 1;
    r.tag = static_cast<uint64_t>(i);
    parallel.push_read(r);
  }
  uint64_t t_conflict = 0, t_par = 0;
  for (const auto& d : drain(conflict, 4)) t_conflict = std::max(t_conflict, d.finish_cycle);
  for (const auto& d : drain(parallel, 4)) t_par = std::max(t_par, d.finish_cycle);
  EXPECT_GT(t_conflict, t_par);
  EXPECT_EQ(s_conflict.row_misses, 4u);
}

// --- differential: window-count scheduler vs the scan-based reference ------

// Seeded random reads, writes and metadata reads, arriving in bursts that
// push the queues far past the scheduler window and then draining. Addresses
// come from a few banks and rows, so row hits, same-bank row conflicts and
// busy-bank stalls are all common. Time advances the way GpuSim advances it:
// sometimes one cycle, sometimes straight to the channel's next event. After
// every tick the two channels must hold the same completions, counters,
// queue depths and next-event cycle.
class DramDifferentialTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(DramDifferentialTest, MatchesReferenceScheduler) {
  GpuSimConfig cfg;
  cfg.scheduler_window = std::get<0>(GetParam());
  cfg.write_drain_watermark = std::get<1>(GetParam());
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SimStats got_stats, want_stats;
    DramChannel got(cfg, got_stats);
    ref::DramChannel want(cfg, want_stats);
    Rng rng(seed);

    auto random_request = [&](uint64_t tag) {
      DramRequest r;
      const uint64_t bank = rng.next_below(6);
      const uint64_t row = rng.next_below(4);
      const uint64_t col = rng.next_below(cfg.row_bytes / kBlockBytes) * kBlockBytes;
      r.addr = (row * cfg.banks_per_mc + bank) * cfg.row_bytes + col;
      r.bursts = static_cast<uint32_t>(1 + rng.next_below(cfg.max_bursts()));
      r.tag = tag;
      const uint64_t kind = rng.next_below(8);
      r.write = kind < 3;
      r.metadata = kind == 3;
      if (r.metadata) r.bursts = 1;
      return r;
    };

    uint64_t cycle = 0;
    uint64_t tag = 0;
    size_t max_depth = 0;
    for (int step = 0; step < 6000; ++step) {
      // Bursty arrivals: 1200-step phases alternate flood and drain.
      const bool flood = (step / 1200) % 2 == 0;
      const uint64_t arrivals = flood ? rng.next_below(4) : (rng.chance(0.05) ? 1 : 0);
      for (uint64_t a = 0; a < arrivals; ++a) {
        const DramRequest r = random_request(tag++);
        if (r.write) {
          got.push_write(r);
          want.push_write(r);
        } else {
          got.push_read(r);
          want.push_read(r);
        }
      }
      max_depth = std::max({max_depth, got.read_queue_depth(), got.write_queue_depth()});

      got.tick(cycle);
      want.tick(cycle);
      ASSERT_EQ(got_stats, want_stats) << "cycle " << cycle;
      ASSERT_EQ(got.read_queue_depth(), want.read_queue_depth()) << "cycle " << cycle;
      ASSERT_EQ(got.write_queue_depth(), want.write_queue_depth()) << "cycle " << cycle;
      ASSERT_EQ(got.busy(), want.busy()) << "cycle " << cycle;
      auto& gc = got.completions();
      auto& wc = want.completions();
      ASSERT_EQ(gc.size(), wc.size()) << "cycle " << cycle;
      for (size_t i = 0; i < gc.size(); ++i) {
        ASSERT_EQ(gc[i].tag, wc[i].tag) << "cycle " << cycle << " completion " << i;
        ASSERT_EQ(gc[i].finish_cycle, wc[i].finish_cycle) << "cycle " << cycle;
        ASSERT_EQ(gc[i].write, wc[i].write);
        ASSERT_EQ(gc[i].metadata, wc[i].metadata);
      }
      while (!gc.empty() && gc.front().finish_cycle <= cycle) {
        gc.pop_front();
        wc.pop_front();
      }
      const uint64_t nxt = got.next_event_cycle(cycle);
      ASSERT_EQ(nxt, want.next_event_cycle(cycle)) << "cycle " << cycle;
      if (nxt != UINT64_MAX && rng.chance(0.5)) {
        cycle = nxt;
      } else {
        cycle += 1 + rng.next_below(3);
      }
    }
    EXPECT_GT(max_depth, 200u) << "the flood phases must queue far past the window";
    EXPECT_GT(got_stats.row_hits, 0u);
    EXPECT_GT(got_stats.row_misses, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowsAndWatermarks, DramDifferentialTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{4}, size_t{64}),
                       ::testing::Values(size_t{0}, size_t{8}, size_t{32}, size_t{1000})),
    [](const auto& info) {
      return "Window" + std::to_string(std::get<0>(info.param)) + "Drain" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace slc
