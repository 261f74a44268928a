// ApproxMemory: the extended-cudaMalloc region registry, commits and traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "core/fingerprint_cache.h"
#include "core/slc_block_codec.h"
#include "reference_codecs.h"
#include "test_util.h"
#include "workloads/approx_memory.h"

namespace slc {
namespace {

// Quantized value-similar floats (grid 0.25): the data shape real benchmark
// inputs have, keeping both float halfwords inside the code table.
std::vector<uint8_t> quantized_walk(uint64_t seed, size_t blocks) {
  Rng rng(seed);
  std::vector<uint8_t> data;
  double walk = 10.0;
  for (size_t i = 0; i < blocks * kBlockBytes / 4; ++i) {
    walk += rng.uniform(-1.0, 1.0);
    const float v = static_cast<float>(std::round(walk * 4.0) / 4.0);
    uint32_t bits;
    __builtin_memcpy(&bits, &v, 4);
    for (int k = 0; k < 4; ++k) data.push_back(static_cast<uint8_t>(bits >> (8 * k)));
  }
  return data;
}

std::shared_ptr<E2mcCompressor> tiny_e2mc() {
  E2mcConfig cfg;
  cfg.sample_fraction = 1.0;
  return E2mcCompressor::train(quantized_walk(11, 64), cfg);
}

TEST(ApproxMemory, AllocPadsToBlocks) {
  ApproxMemory mem;
  const RegionId r = mem.alloc("x", 130, false);
  EXPECT_EQ(mem.region_bytes(r), 2 * kBlockBytes);
  EXPECT_EQ(mem.region_blocks(r), 2u);
}

TEST(ApproxMemory, AddressesAreBlockAlignedAndDisjoint) {
  ApproxMemory mem;
  const RegionId a = mem.alloc("a", 1024, false);
  const RegionId b = mem.alloc("b", 1024, false);
  EXPECT_EQ(mem.region_addr(a) % kBlockBytes, 0u);
  EXPECT_EQ(mem.region_addr(b) % kBlockBytes, 0u);
  EXPECT_GE(mem.region_addr(b), mem.region_addr(a) + 1024);
}

TEST(ApproxMemory, SafeRegionCount) {
  ApproxMemory mem;
  mem.alloc("a", 128, true);
  mem.alloc("b", 128, false);
  mem.alloc("c", 128, true);
  EXPECT_EQ(mem.safe_region_count(), 2u);
}

TEST(ApproxMemory, TypedSpans) {
  ApproxMemory mem;
  const RegionId r = mem.alloc("f", 512, false);
  auto s = mem.span<float>(r);
  EXPECT_EQ(s.size(), 128u);
  s[0] = 3.5f;
  EXPECT_EQ(mem.span<const float>(r)[0], 3.5f);
}

TEST(ApproxMemory, CommitWithoutCodecIsExact) {
  ApproxMemory mem;
  const RegionId r = mem.alloc("f", 512, true);
  auto s = mem.span<float>(r);
  for (size_t i = 0; i < s.size(); ++i) s[i] = static_cast<float>(i);
  mem.commit(r);
  for (size_t i = 0; i < s.size(); ++i) EXPECT_EQ(s[i], static_cast<float>(i));
}

TEST(ApproxMemory, LosslessCodecRecordsBurstsWithoutMutation) {
  ApproxMemory mem;
  auto codec = std::make_shared<LosslessBlockCodec>(tiny_e2mc(), 32);
  mem.set_codec(codec);
  const RegionId r = mem.alloc("zeros", 4 * kBlockBytes, true);
  mem.commit(r);
  const CommitStats st = mem.region_stats(r);
  EXPECT_EQ(st.blocks, 4u);
  EXPECT_EQ(st.lossy_blocks, 0u);
  // Zero blocks compress far below one burst.
  EXPECT_EQ(st.bursts, 4u);  // one per block
  for (uint8_t byte : mem.span<const uint8_t>(r)) EXPECT_EQ(byte, 0);
}

TEST(ApproxMemory, SlcCodecMutatesOnlySafeRegions) {
  auto e2mc = tiny_e2mc();
  SlcConfig cfg;
  cfg.threshold_bytes = 16;
  cfg.variant = SlcVariant::kSimp;
  auto codec = std::make_shared<SlcBlockCodec>(e2mc, cfg);

  ApproxMemory mem;
  mem.set_codec(codec);
  const RegionId safe = mem.alloc("safe", 64 * kBlockBytes, true);
  const RegionId unsafe = mem.alloc("unsafe", 64 * kBlockBytes, false);

  const auto bytes = quantized_walk(3, 64);
  std::copy(bytes.begin(), bytes.end(), mem.span<uint8_t>(safe).begin());
  const auto unsafe_before = std::vector<uint8_t>(mem.span<const uint8_t>(unsafe).begin(),
                                                  mem.span<const uint8_t>(unsafe).end());
  mem.commit_all();
  // Unsafe region bytes identical.
  const auto unsafe_after = mem.span<const uint8_t>(unsafe);
  EXPECT_TRUE(std::equal(unsafe_before.begin(), unsafe_before.end(), unsafe_after.begin()));
  EXPECT_EQ(mem.region_stats(unsafe).lossy_blocks, 0u);
}

TEST(ApproxMemory, TraceCapturesBursts) {
  ApproxMemory mem;
  auto codec = std::make_shared<RawBlockCodec>(32);
  mem.set_codec(codec);
  const RegionId r = mem.alloc("t", 3 * kBlockBytes, false);
  mem.commit(r);
  mem.begin_kernel("k", 2.0, 4);
  mem.trace_read(r);
  mem.trace_write(r);
  const auto& trace = mem.trace();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].name, "k");
  EXPECT_EQ(trace[0].compute_per_access, 2.0);
  ASSERT_EQ(trace[0].accesses.size(), 6u);
  EXPECT_FALSE(trace[0].accesses[0].write);
  EXPECT_TRUE(trace[0].accesses[3].write);
  for (const auto& a : trace[0].accesses) {
    EXPECT_EQ(a.bursts, 4u);  // RAW codec: max bursts
    EXPECT_EQ(a.addr % kBlockBytes, 0u);
  }
}

TEST(ApproxMemory, TraceZipInterleaves) {
  ApproxMemory mem;
  const RegionId a = mem.alloc("a", 2 * kBlockBytes, false);
  const RegionId b = mem.alloc("b", 2 * kBlockBytes, false);
  mem.begin_kernel("z", 1.0);
  const RegionId reads[] = {a};
  const RegionId writes[] = {b};
  mem.trace_zip(reads, writes);
  const auto& acc = mem.trace()[0].accesses;
  ASSERT_EQ(acc.size(), 4u);
  EXPECT_EQ(acc[0].addr, mem.region_addr(a));
  EXPECT_EQ(acc[1].addr, mem.region_addr(b));
  EXPECT_TRUE(acc[1].write);
  EXPECT_EQ(acc[2].addr, mem.region_addr(a) + kBlockBytes);
}

TEST(ApproxMemory, UncommittedBlocksCostMaxBursts) {
  ApproxMemory mem;
  auto codec = std::make_shared<LosslessBlockCodec>(tiny_e2mc(), 32);
  mem.set_codec(codec);
  const RegionId r = mem.alloc("u", kBlockBytes, false);
  mem.begin_kernel("k", 1.0);
  mem.trace_read(r);  // never committed
  EXPECT_EQ(mem.trace()[0].accesses[0].bursts, 4u);
}

// --- async commits ----------------------------------------------------------

namespace {

std::shared_ptr<SlcBlockCodec> tiny_slc() {
  SlcConfig cfg;
  cfg.threshold_bytes = 16;
  cfg.variant = SlcVariant::kOpt;
  return std::make_shared<SlcBlockCodec>(tiny_e2mc(), cfg);
}

/// Fills a fresh memory with two value-similar regions and returns their ids.
std::vector<RegionId> fill_two_regions(ApproxMemory& mem) {
  std::vector<RegionId> regions;
  for (uint64_t s = 0; s < 2; ++s) {
    regions.push_back(mem.alloc("r" + std::to_string(s), 48 * kBlockBytes, /*safe=*/true, 16));
    const auto src = quantized_walk(70 + s, 48);
    std::copy(src.begin(), src.end(), mem.span<uint8_t>(regions.back()).begin());
  }
  return regions;
}

}  // namespace

// commit_async + flush must be byte-identical to commit(): same mutated
// contents, same stats, same burst counts in the trace.
TEST(ApproxMemory, CommitAsyncMatchesSyncCommit) {
  auto run = [](bool async) {
    ApproxMemory mem;
    mem.set_codec(tiny_slc());
    const auto regions = fill_two_regions(mem);
    for (const RegionId r : regions) {
      if (async) {
        mem.commit_async(r);
      } else {
        mem.commit(r);
      }
    }
    mem.flush();
    mem.begin_kernel("k", 1.0);
    std::vector<uint8_t> bursts;
    std::vector<uint8_t> contents;
    for (const RegionId r : regions) {
      mem.trace_read(r);
      const auto bytes = mem.span<const uint8_t>(r);
      contents.insert(contents.end(), bytes.begin(), bytes.end());
    }
    for (const TraceAccess& a : mem.trace()[0].accesses) bursts.push_back(a.bursts);
    return std::make_tuple(contents, bursts, mem.stats());
  };

  const auto [sync_data, sync_bursts, sync_stats] = run(false);
  const auto [async_data, async_bursts, async_stats] = run(true);
  EXPECT_EQ(sync_data, async_data);
  EXPECT_EQ(sync_bursts, async_bursts);
  EXPECT_TRUE(sync_stats == async_stats);  // all-field CommitStats equality
}

TEST(ApproxMemory, FlushDrainsAllPendingCommits) {
  ApproxMemory mem;
  mem.set_codec(tiny_slc());
  const auto regions = fill_two_regions(mem);
  for (const RegionId r : regions) {
    mem.commit_async(r);
    EXPECT_TRUE(mem.commit_pending(r));
  }
  mem.flush();
  for (const RegionId r : regions) EXPECT_FALSE(mem.commit_pending(r));
  EXPECT_EQ(mem.stats().blocks, 96u);  // 2 regions x 48 blocks, all settled
}

// Every observation settles: span(), trace and stats see post-commit state
// without an explicit flush().
TEST(ApproxMemory, ObservationsSettlePendingCommit) {
  ApproxMemory reference;
  reference.set_codec(tiny_slc());
  const auto ref_regions = fill_two_regions(reference);
  reference.commit(ref_regions[0]);

  ApproxMemory mem;
  mem.set_codec(tiny_slc());
  const auto regions = fill_two_regions(mem);
  mem.commit_async(regions[0]);

  // span() settles before exposing bytes.
  const auto got = mem.span<const uint8_t>(regions[0]);
  const auto want = reference.span<const uint8_t>(ref_regions[0]);
  EXPECT_FALSE(mem.commit_pending(regions[0]));
  EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()));

  // trace_block settles too: bursts reflect the in-flight commit's outcome.
  mem.commit_async(regions[1]);
  reference.commit(ref_regions[1]);
  mem.begin_kernel("k", 1.0);
  reference.begin_kernel("k", 1.0);
  mem.trace_read(regions[1]);
  reference.trace_read(ref_regions[1]);
  ASSERT_EQ(mem.trace()[0].accesses.size(), reference.trace()[0].accesses.size());
  for (size_t i = 0; i < mem.trace()[0].accesses.size(); ++i)
    EXPECT_EQ(mem.trace()[0].accesses[i].bursts, reference.trace()[0].accesses[i].bursts);

  // region_stats settles the one region it reports on.
  EXPECT_EQ(mem.region_stats(regions[1]).blocks, reference.region_stats(ref_regions[1]).blocks);
}

// commit_all queues every region; back-to-back commits of the same region
// serialize through settle, so re-commits stay ordered.
TEST(ApproxMemory, CommitAllPipelinesAndRecommitSerializes) {
  ApproxMemory mem;
  mem.set_codec(tiny_slc());
  const auto regions = fill_two_regions(mem);
  mem.commit_all();
  for (const RegionId r : regions) EXPECT_TRUE(mem.commit_pending(r));
  mem.commit_async(regions[0]);  // settles the first commit, queues a second
  mem.flush();
  EXPECT_EQ(mem.stats().blocks, 144u);  // 3 commits x 48 blocks
}

// Region commits through the batched policy kernel must be byte-identical to
// the scalar per-block loop: same mutated contents, same stats, same burst
// counts — across lossy/threshold-varied regions (tighter and looser than
// the codec config, unsafe, zero-threshold) and across engine batch splits
// (inline, 1-thread, 4-thread shard sizes all differ).
TEST(ApproxMemory, BatchCommitMatchesScalarAcrossThresholds) {
  auto run = [](std::shared_ptr<const BlockCodec> codec, std::shared_ptr<CodecEngine> engine) {
    ApproxMemory mem;
    mem.set_engine(std::move(engine));
    mem.set_codec(std::move(codec));
    struct Spec {
      bool safe;
      size_t threshold;
    };
    const Spec specs[] = {{true, 16}, {true, 4}, {true, 64}, {false, 16}, {true, 0}};
    std::vector<RegionId> regions;
    for (size_t i = 0; i < std::size(specs); ++i) {
      regions.push_back(mem.alloc("r" + std::to_string(i), 48 * kBlockBytes, specs[i].safe,
                                  specs[i].threshold));
      const auto src = quantized_walk(100 + i, 48);
      std::copy(src.begin(), src.end(), mem.span<uint8_t>(regions.back()).begin());
    }
    mem.commit_all();
    mem.flush();
    mem.begin_kernel("k", 1.0);
    std::vector<uint8_t> contents;
    std::vector<uint32_t> bursts;
    for (const RegionId r : regions) {
      mem.trace_read(r);
      const auto bytes = mem.span<const uint8_t>(r);
      contents.insert(contents.end(), bytes.begin(), bytes.end());
    }
    for (const TraceAccess& a : mem.trace()[0].accesses) bursts.push_back(a.bursts);
    return std::make_tuple(contents, bursts, mem.stats());
  };

  // The per-block reference policy (tests/reference_codecs.h) decides one
  // block at a time: a commit through it is the oracle the batch must match.
  const auto scalar = run(ref::per_block_policy(tiny_slc()), nullptr);
  size_t lossy_total = 0;
  for (const auto engine_threads : {0u, 1u, 4u}) {
    const auto engine = engine_threads == 0 ? nullptr : std::make_shared<CodecEngine>(engine_threads);
    const auto batch = run(tiny_slc(), engine);
    EXPECT_EQ(std::get<0>(scalar), std::get<0>(batch)) << engine_threads << " threads";
    EXPECT_EQ(std::get<1>(scalar), std::get<1>(batch)) << engine_threads << " threads";
    EXPECT_TRUE(std::get<2>(scalar) == std::get<2>(batch)) << engine_threads << " threads";
    lossy_total += std::get<2>(batch).lossy_blocks;
  }
  EXPECT_GT(lossy_total, 0u);  // the sweep must exercise lossy materialization
}

/// One block through a policy's batch kernel (on a copy of its bytes).
BlockAnalysis process_one(const BlockCodec& codec, const Block& b, bool safe, size_t threshold) {
  Block copy = b;
  BlockAnalysis a;
  codec.process_batch(copy.mutable_bytes(), safe, threshold, &a);
  return a;
}

TEST(BlockCodec, RawReportsMaxBursts) {
  const RawBlockCodec raw(32);
  Block b;
  const auto r = process_one(raw, b, true, 16);
  CommitStats st;
  EXPECT_EQ(st.add(r, kBlockBytes, raw.mag_bytes()), 4u);
  EXPECT_FALSE(r.lossy);
  EXPECT_FALSE(r.is_compressed);
  EXPECT_EQ(raw.max_bursts(), 4u);
}

TEST(BlockCodec, SlcRespectsRegionThreshold) {
  auto e2mc = tiny_e2mc();
  SlcConfig cfg;
  cfg.threshold_bytes = 16;
  cfg.variant = SlcVariant::kOpt;
  const SlcBlockCodec codec(e2mc, cfg);

  const auto bytes = quantized_walk(17, 64);
  size_t lossy_with = 0, lossy_without = 0;
  for (int i = 0; i < 64; ++i) {
    const Block b(std::span<const uint8_t>(bytes).subspan(
        static_cast<size_t>(i) * kBlockBytes, kBlockBytes));
    if (process_one(codec, b, true, 16).lossy) ++lossy_with;
    if (process_one(codec, b, false, 16).lossy) ++lossy_without;
    // threshold 0 region: never lossy even if marked safe
    EXPECT_FALSE(process_one(codec, b, true, 0).lossy);
  }
  EXPECT_GT(lossy_with, 0u);
  EXPECT_EQ(lossy_without, 0u);
}

// CommitStats::add is the one per-block fold. It must give exactly what the
// three folds it replaced gave on a span mixing lossy, lossless and raw
// blocks with memo hits: the commit fold (policy-reported bursts, raw
// blocks at full cost), the server's analyze fold (bursts derived from the
// stored size) and the engine's stream fold (ratio accumulator plus
// lossy/truncated/cache tallies).
TEST(CommitStats, OneFoldMatchesTheFoldsItReplaced) {
  constexpr size_t kMag = 32;
  SlcConfig cfg;
  cfg.mag_bytes = kMag;
  cfg.cache = std::make_shared<FingerprintCache>();
  const SlcBlockCodec codec(tiny_e2mc(), cfg);
  const std::vector<Block> blocks = test::dedup_corpus(
      {.blocks = 192, .dup_fraction = 0.3, .zero_fraction = 0.1, .seed = 7});
  std::vector<uint8_t> data = test::corpus_bytes(blocks);
  std::vector<BlockAnalysis> out(blocks.size());
  codec.process_batch(data, /*safe=*/true, /*threshold=*/16, out.data());

  CommitStats fold, commit_fold, server_fold;
  // The stream fold's ratio accumulator: stored bits clamped to the block,
  // fetched bits rounded up to whole bursts, at least one, at most the block.
  uint64_t stream_blocks = 0, stream_original = 0, stream_raw = 0, stream_effective = 0;
  uint64_t stream_lossy = 0, stream_truncated = 0;
  CacheCounters stream_cache;
  size_t lossy = 0, lossless = 0, raw = 0;
  for (const BlockAnalysis& a : out) {
    fold.add(a, kBlockBytes, kMag);
    lossy += a.lossy ? 1 : 0;
    raw += a.is_compressed ? 0 : 1;
    lossless += a.is_compressed && !a.lossy ? 1 : 0;

    for (CommitStats* cs : {&commit_fold, &server_fold}) {
      cs->blocks += 1;
      cs->lossy_blocks += a.lossy ? 1 : 0;
      cs->uncompressed_blocks += a.is_compressed ? 0 : 1;
      cs->truncated_symbols += a.truncated_symbols;
      cs->original_bits += kBlockBytes * 8;
      cs->lossless_bits += a.lossless_bits;
      cs->final_bits += a.bit_size;
      cs->cache.record(a.cache);
    }
    commit_fold.bursts +=
        a.is_compressed ? bursts_for_bits(a.bit_size, kMag) : kBlockBytes / kMag;
    server_fold.bursts += bursts_for_bits(a.bit_size, kMag, kBlockBytes);

    const size_t raw_bits = std::min(a.bit_size, kBlockBytes * 8);
    stream_blocks += 1;
    stream_original += kBlockBytes * 8;
    stream_raw += raw_bits;
    stream_effective += std::min(std::max(round_up_to_mag_bits(raw_bits, kMag), kMag * 8),
                                 kBlockBytes * 8);
    stream_lossy += a.lossy ? 1 : 0;
    stream_truncated += a.truncated_symbols;
    stream_cache.record(a.cache);
  }
  ASSERT_GT(lossy, 0u);
  ASSERT_GT(lossless, 0u);
  ASSERT_GT(raw, 0u);
  ASSERT_GT(fold.cache.hits, 0u);

  EXPECT_EQ(fold, commit_fold);
  EXPECT_EQ(fold, server_fold);
  EXPECT_EQ(fold.blocks, stream_blocks);
  EXPECT_EQ(fold.raw_ratio(),
            static_cast<double>(stream_original) / static_cast<double>(stream_raw));
  EXPECT_EQ(fold.effective_ratio(kMag),
            static_cast<double>(stream_original) / static_cast<double>(stream_effective));
  EXPECT_EQ(fold.lossy_blocks, stream_lossy);
  EXPECT_EQ(fold.truncated_symbols, stream_truncated);
  EXPECT_EQ(fold.cache, stream_cache);
}

}  // namespace
}  // namespace slc
