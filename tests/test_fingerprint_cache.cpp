// Fingerprint-cache suite: unit coverage of the content-addressed decision
// memo (core/fingerprint_cache.h) plus the differential fuzz harness that
// pins its one non-negotiable property — a cached run is byte-identical to
// an uncached run of the same stream. The fuzz streams come from
// test::dedup_corpus: seeded mixes of fresh random / value-similar blocks,
// verbatim duplicates, one-byte near-duplicates and zero pages, replayed
// through cached and uncached codecs at every layer (SlcCodec, BlockCodec,
// engine commits, server streams) and at 1 and N threads.
//
// Hit/miss/eviction *counters* are not part of the determinism contract
// (see CacheCounters), so decision checks use CommitStats::same_decisions.
#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "compress/block_codec.h"
#include "compress/codec_registry.h"
#include "core/fingerprint_cache.h"
#include "core/slc_codec.h"
#include "engine/codec_engine.h"
#include "reference_codecs.h"
#include "server/codec_server.h"
#include "test_util.h"
#include "workloads/approx_memory.h"

namespace slc {
namespace {

const std::vector<uint8_t>& shared_training() {
  static const std::vector<uint8_t> training = test::quantized_walk(7, 64);
  return training;
}

std::shared_ptr<const E2mcCompressor> shared_model() {
  static const std::shared_ptr<const E2mcCompressor> model =
      E2mcCompressor::train(shared_training(), E2mcConfig{});
  return model;
}

SlcCodec make_slc(std::shared_ptr<FingerprintCache> cache, size_t threshold_bytes = 16,
                  SlcVariant variant = SlcVariant::kOpt) {
  SlcConfig cfg;
  cfg.mag_bytes = 32;
  cfg.threshold_bytes = threshold_bytes;
  cfg.variant = variant;
  cfg.cache = std::move(cache);
  return SlcCodec(shared_model(), cfg);
}

CodecOptions cached_options(std::shared_ptr<FingerprintCache> cache) {
  CodecOptions opts = test::test_options(shared_training());
  opts.trained_e2mc = shared_model();
  opts.fingerprint_cache = std::move(cache);
  return opts;
}

std::vector<BlockView> views_of(const std::vector<Block>& blocks) {
  std::vector<BlockView> v;
  v.reserve(blocks.size());
  for (const Block& b : blocks) v.push_back(b.view());
  return v;
}

struct NamedCorpus {
  const char* name;
  std::vector<Block> blocks;
};

/// The adversarial stream mix every differential test replays: heavy
/// duplication, one-byte near-duplicates, zero pages, and an all-fresh
/// control stream.
std::vector<NamedCorpus> fuzz_corpora() {
  std::vector<NamedCorpus> out;
  out.push_back({"dup-heavy", test::dedup_corpus({.blocks = 192,
                                                  .dup_fraction = 0.55,
                                                  .flip_fraction = 0.05,
                                                  .zero_fraction = 0.05,
                                                  .seed = 11})});
  out.push_back({"near-duplicates", test::dedup_corpus({.blocks = 192,
                                                        .dup_fraction = 0.15,
                                                        .flip_fraction = 0.55,
                                                        .zero_fraction = 0.0,
                                                        .seed = 12})});
  out.push_back({"zero-pages", test::dedup_corpus({.blocks = 128,
                                                   .dup_fraction = 0.1,
                                                   .flip_fraction = 0.1,
                                                   .zero_fraction = 0.6,
                                                   .seed = 13})});
  out.push_back({"all-fresh", test::dedup_corpus({.blocks = 128, .seed = 14})});
  return out;
}

// The cache outcome is deliberately NOT compared: hit-rate bookkeeping,
// never part of the determinism contract.
void expect_analysis_eq(const BlockAnalysis& a, const BlockAnalysis& b, const std::string& what) {
  EXPECT_EQ(a.bit_size, b.bit_size) << what;
  EXPECT_EQ(a.is_compressed, b.is_compressed) << what;
  EXPECT_EQ(a.lossy, b.lossy) << what;
  EXPECT_EQ(a.lossless_bits, b.lossless_bits) << what;
  EXPECT_EQ(a.truncated_symbols, b.truncated_symbols) << what;
}

void expect_decision_eq(const SlcCodec::Decision& a, const SlcCodec::Decision& b,
                        const std::string& what) {
  expect_analysis_eq(a.analysis, b.analysis, what);
  EXPECT_EQ(a.extra_bits, b.extra_bits) << what;
  EXPECT_EQ(a.truncated_bits, b.truncated_bits) << what;
  EXPECT_EQ(a.skip_start, b.skip_start) << what;
  EXPECT_EQ(a.skip_count, b.skip_count) << what;
}

/// One process_batch pass over a copy of `blocks`: each block's outcome and
/// the bytes reads observe afterwards.
struct PolicyRun {
  std::vector<BlockAnalysis> out;
  std::vector<uint8_t> bytes;
};

PolicyRun run_policy(const BlockCodec& codec, const std::vector<Block>& blocks, bool safe,
                     size_t threshold) {
  PolicyRun run{std::vector<BlockAnalysis>(blocks.size()), test::corpus_bytes(blocks)};
  codec.process_batch(run.bytes, safe, threshold, run.out.data());
  return run;
}

void expect_run_eq(const PolicyRun& a, const PolicyRun& b, const std::string& what) {
  ASSERT_EQ(a.out.size(), b.out.size()) << what;
  for (size_t i = 0; i < a.out.size(); ++i)
    expect_analysis_eq(a.out[i], b.out[i], what + " block " + std::to_string(i));
  EXPECT_EQ(a.bytes, b.bytes) << what;
}

SlcCodec::Decision arbitrary_decision(size_t tag) {
  SlcCodec::Decision d;
  d.analysis.bit_size = 100 + tag;
  d.analysis.is_compressed = tag % 4 != 0;
  d.analysis.lossy = (tag % 2) != 0;
  d.skip_start = tag;
  d.skip_count = tag * 2;
  return d;
}

// --- block_fingerprint ------------------------------------------------------

TEST(BlockFingerprint, EqualContentEqualFingerprint) {
  const auto corpus = test::dedup_corpus({.blocks = 8, .seed = 3});
  for (const Block& b : corpus) {
    const Block copy = b;
    EXPECT_EQ(block_fingerprint(b.bytes()), block_fingerprint(copy.bytes()));
  }
}

TEST(BlockFingerprint, EveryByteFlipChangesFingerprint) {
  const Block base = test::dedup_corpus({.blocks = 1, .seed = 5})[0];
  const uint64_t fp = block_fingerprint(base.bytes());
  for (size_t pos = 0; pos < kBlockBytes; ++pos) {
    Block mutated = base;
    mutated.mutable_bytes()[pos] ^= 0x01;
    EXPECT_NE(block_fingerprint(mutated.bytes()), fp) << "byte " << pos;
  }
}

TEST(BlockFingerprint, PrefixLengthsHashDistinctly) {
  // Tail handling (8/4/1-byte remainders) must feed the final mix: every
  // prefix of one block, including the empty one, hashes distinctly.
  const Block base = test::dedup_corpus({.blocks = 1, .seed = 6})[0];
  std::set<uint64_t> seen;
  for (size_t len = 0; len <= kBlockBytes; ++len)
    seen.insert(block_fingerprint(base.bytes().subspan(0, len)));
  EXPECT_EQ(seen.size(), kBlockBytes + 1);
}

// --- FingerprintCache unit behaviour ----------------------------------------

TEST(FingerprintCache, InsertThenLookupRoundTripsTheDecision) {
  FingerprintCache cache;
  const SlcCodec::Decision in = arbitrary_decision(9);
  const Block b = test::dedup_corpus({.blocks = 1, .seed = 8})[0];
  EXPECT_FALSE(cache.insert(1, 42, b.bytes(), in));
  SlcCodec::Decision out;
  EXPECT_EQ(cache.lookup(1, 42, b.bytes(), out), FingerprintCache::Lookup::kHit);
  expect_decision_eq(out, in, "roundtrip");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.counters().hits, 1u);
}

TEST(FingerprintCache, LruEvictsTheColdestEntry) {
  FingerprintCache cache({.capacity = 4, .shards = 1, .verify_on_hit = false});
  ASSERT_EQ(cache.capacity(), 4u);
  const Block b;
  for (uint64_t fp = 0; fp < 4; ++fp)
    EXPECT_FALSE(cache.insert(1, fp, b.bytes(), arbitrary_decision(fp)));
  // Touch fp=0 so fp=1 becomes the LRU victim.
  SlcCodec::Decision d;
  EXPECT_EQ(cache.lookup(1, 0, b.bytes(), d), FingerprintCache::Lookup::kHit);
  EXPECT_TRUE(cache.insert(1, 99, b.bytes(), arbitrary_decision(99)));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.lookup(1, 1, b.bytes(), d), FingerprintCache::Lookup::kMiss);
  EXPECT_EQ(cache.lookup(1, 0, b.bytes(), d), FingerprintCache::Lookup::kHit);
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(FingerprintCache, ReinsertRefreshesWithoutEvicting) {
  FingerprintCache cache({.capacity = 2, .shards = 1, .verify_on_hit = false});
  const Block b;
  EXPECT_FALSE(cache.insert(1, 7, b.bytes(), arbitrary_decision(1)));
  EXPECT_FALSE(cache.insert(1, 7, b.bytes(), arbitrary_decision(2)));  // refresh, no growth
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.counters().evictions, 0u);
  SlcCodec::Decision d;
  EXPECT_EQ(cache.lookup(1, 7, b.bytes(), d), FingerprintCache::Lookup::kHit);
  EXPECT_EQ(d.analysis.bit_size, arbitrary_decision(2).analysis.bit_size);  // last writer wins
}

TEST(FingerprintCache, VerifyOnHitCatchesCollision) {
  FingerprintCache cache({.capacity = 8, .shards = 1, .verify_on_hit = true});
  ASSERT_TRUE(cache.verify_on_hit());
  const auto corpus = test::dedup_corpus({.blocks = 2, .seed = 21});
  cache.insert(1, 5, corpus[0].bytes(), arbitrary_decision(0));
  SlcCodec::Decision d;
  // Same (key, fp), different content: a forced 64-bit collision. Must be
  // reported, never served.
  EXPECT_EQ(cache.lookup(1, 5, corpus[1].bytes(), d), FingerprintCache::Lookup::kCollision);
  EXPECT_EQ(cache.counters().collisions, 1u);
  EXPECT_EQ(cache.lookup(1, 5, corpus[0].bytes(), d), FingerprintCache::Lookup::kHit);
}

TEST(FingerprintCache, ShardIndexStaysInRangeAndSingleShardPinsToZero) {
  FingerprintCache sharded({.capacity = 64, .shards = 8, .verify_on_hit = false});
  EXPECT_EQ(sharded.num_shards(), 8u);
  FingerprintCache single({.capacity = 64, .shards = 1, .verify_on_hit = false});
  Rng rng(31);
  for (int i = 0; i < 256; ++i) {
    const uint64_t key = rng.next(), fp = rng.next();
    EXPECT_LT(sharded.shard_index(key, fp), sharded.num_shards());
    EXPECT_EQ(single.shard_index(key, fp), 0u);
  }
}

TEST(FingerprintCache, ShardCountRoundsUpToPowerOfTwo) {
  FingerprintCache cache({.capacity = 60, .shards = 6, .verify_on_hit = false});
  EXPECT_EQ(cache.num_shards(), 8u);
  EXPECT_EQ(cache.capacity(), 8u * (60 / 8));
}

TEST(FingerprintCache, ClearDropsEntriesKeepsCounters) {
  FingerprintCache cache;
  const Block b;
  cache.insert(1, 3, b.bytes(), arbitrary_decision(3));
  SlcCodec::Decision d;
  cache.lookup(1, 3, b.bytes(), d);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(1, 3, b.bytes(), d), FingerprintCache::Lookup::kMiss);
  EXPECT_EQ(cache.counters().hits, 1u);  // totals survive clear()
}

// Shard selection and eviction under concurrent mixed hit/miss traffic with
// verify-on-hit enabled (the ASan and TSan CI tiers both run this). Shard
// pinning via shard_index makes the assertions deterministic even under
// racing LRU churn: hot keys live alone in shard 0 (fewer keys than the
// shard holds, so they are never evicted and every post-populate probe must
// hit), while per-thread disjoint cold sets oversubscribe the other shards
// to force insert/evict churn.
TEST(FingerprintCache, ConcurrentMixedHitMissTrafficWithVerifyOnHit) {
  FingerprintCache cache({.capacity = 64, .shards = 4, .verify_on_hit = true});
  ASSERT_EQ(cache.num_shards(), 4u);
  const size_t per_shard = cache.capacity() / cache.num_shards();

  // Deterministic content and decision per fingerprint, so a verified hit
  // can be checked against exactly what the inserter stored, and honest
  // content can never trip the verify-on-hit collision path.
  const auto block_for = [](uint64_t fp) {
    Block b;
    auto bytes = b.mutable_bytes();
    for (size_t i = 0; i < bytes.size(); ++i)
      bytes[i] = static_cast<uint8_t>((fp * 0x9E3779B97F4A7C15ull + i * 0x85EBCA77ull) >> 32);
    return b;
  };

  constexpr uint64_t kKey = 7;
  std::vector<uint64_t> hot;
  for (uint64_t fp = 0; hot.size() < per_shard / 2; ++fp)
    if (cache.shard_index(kKey, fp) == 0) hot.push_back(fp);
  constexpr unsigned kThreads = 4;
  std::vector<std::vector<uint64_t>> cold(kThreads);
  uint64_t next_fp = 1'000'000;
  for (unsigned t = 0; t < kThreads; ++t)
    while (cold[t].size() < 4 * per_shard)
      if (cache.shard_index(kKey, ++next_fp) != 0) cold[t].push_back(next_fp);

  for (const uint64_t fp : hot)
    EXPECT_FALSE(cache.insert(kKey, fp, block_for(fp).bytes(), arbitrary_decision(fp)));

  std::atomic<size_t> bad_decisions{0}, missed_hot{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (int iter = 0; iter < 40; ++iter) {
        for (const uint64_t fp : cold[t]) {
          SlcCodec::Decision d;
          const auto r = cache.lookup(kKey, fp, block_for(fp).bytes(), d);
          if (r == FingerprintCache::Lookup::kHit &&
              d.analysis.bit_size != arbitrary_decision(fp).analysis.bit_size)
            bad_decisions.fetch_add(1);
          if (r == FingerprintCache::Lookup::kMiss)
            cache.insert(kKey, fp, block_for(fp).bytes(), arbitrary_decision(fp));
        }
        for (const uint64_t fp : hot) {
          SlcCodec::Decision d;
          if (cache.lookup(kKey, fp, block_for(fp).bytes(), d) != FingerprintCache::Lookup::kHit)
            missed_hot.fetch_add(1);
          else if (d.skip_start != arbitrary_decision(fp).skip_start ||
                   d.analysis.bit_size != arbitrary_decision(fp).analysis.bit_size)
            bad_decisions.fetch_add(1);
        }
      }
    });
  for (auto& w : workers) w.join();

  EXPECT_EQ(bad_decisions.load(), 0u);
  EXPECT_EQ(missed_hot.load(), 0u);
  EXPECT_LE(cache.size(), cache.capacity());
  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.collisions, 0u);  // content always matches its fingerprint here
  EXPECT_GT(c.evictions, 0u);   // the cold sets oversubscribe their shards
  EXPECT_EQ(c.probes(), c.hits + c.misses);
}

// --- SlcCodec-level differential --------------------------------------------

TEST(CachedDecision, CodecKeysIsolateConfigurationsAndModels) {
  auto cache = std::make_shared<FingerprintCache>();
  const SlcCodec a = make_slc(cache, /*threshold=*/16);
  const SlcCodec b = make_slc(cache, /*threshold=*/4);
  ASSERT_NE(a.cache_key(), b.cache_key());
  // A second model trained on the same sample is still a distinct key —
  // identity is the model instance, not its contents.
  SlcConfig cfg;
  cfg.mag_bytes = 32;
  cfg.cache = cache;
  const SlcCodec c(E2mcCompressor::train(shared_training(), E2mcConfig{}), cfg);
  ASSERT_NE(c.cache_key(), a.cache_key());

  const Block block = test::dedup_corpus({.blocks = 1, .seed = 40})[0];
  const CacheOutcome first = ref::slc_decide(a, block.view()).analysis.cache;
  EXPECT_TRUE(first.probed);
  EXPECT_FALSE(first.hit);
  // A repeat through the same codec hits; a different threshold or trained
  // model is a separate entry.
  EXPECT_TRUE(ref::slc_decide(a, block.view()).analysis.cache.hit);
  EXPECT_FALSE(ref::slc_decide(b, block.view()).analysis.cache.hit);
  EXPECT_FALSE(ref::slc_decide(c, block.view()).analysis.cache.hit);
}

TEST(CachedDecision, AnalyzeMatchesUncachedForEveryVariantAndStream) {
  for (const auto& [cname, blocks] : fuzz_corpora()) {
    const auto views = views_of(blocks);
    for (const SlcVariant variant : {SlcVariant::kSimp, SlcVariant::kPred, SlcVariant::kOpt}) {
      for (const size_t threshold : {size_t{16}, size_t{4}}) {
        const SlcCodec uncached = make_slc(nullptr, threshold, variant);
        const SlcCodec cached = make_slc(std::make_shared<FingerprintCache>(), threshold, variant);
        SlcCodec::LengthScratch scratch;
        std::vector<SlcCodec::Decision> expected(views.size());
        uncached.decide_batch_cached(views, scratch, expected.data());
        // Two passes: pass 0 populates (misses + in-span twins), pass 1 is
        // served from the memo; both must reproduce the oracle exactly.
        for (int pass = 0; pass < 2; ++pass) {
          std::vector<SlcCodec::Decision> got(views.size());
          cached.decide_batch_cached(views, scratch, got.data());
          for (size_t i = 0; i < views.size(); ++i)
            expect_decision_eq(got[i], expected[i],
                           std::string(cname) + " variant " + to_string(variant) + " thr " +
                               std::to_string(threshold) + " pass " + std::to_string(pass) +
                               " block " + std::to_string(i));
        }
        EXPECT_GE(cached.cache()->counters().hits, views.size())
            << cname << " second pass should be all hits";
      }
    }
  }
}

TEST(CachedDecision, DecideCachedMatchesBatchOracleIncludingSkipWindow) {
  const auto blocks = test::dedup_corpus(
      {.blocks = 160, .dup_fraction = 0.4, .flip_fraction = 0.3, .zero_fraction = 0.1, .seed = 51});
  const auto views = views_of(blocks);
  const SlcCodec uncached = make_slc(nullptr, /*threshold=*/16);
  const SlcCodec cached = make_slc(std::make_shared<FingerprintCache>(), /*threshold=*/16);
  SlcCodec::LengthScratch scratch;
  std::vector<SlcCodec::Decision> expected(views.size());
  uncached.decide_batch(views, scratch, expected.data());
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < views.size(); ++i) {
      // One block at a time: decide_batch_cached over a span of one.
      const SlcCodec::Decision got = ref::slc_decide(cached, views[i]);
      expect_decision_eq(got, expected[i],
                         "pass " + std::to_string(pass) + " block " + std::to_string(i));
    }
  }
}

TEST(CachedDecision, EvictionChurnNeverChangesDecisions) {
  // A cache far smaller than the stream: every block cycles through insert/
  // evict, and duplicates straddle eviction boundaries. Decisions must not
  // care.
  const auto blocks = test::dedup_corpus(
      {.blocks = 384, .dup_fraction = 0.5, .flip_fraction = 0.2, .zero_fraction = 0.1, .seed = 52});
  const auto views = views_of(blocks);
  const SlcCodec uncached = make_slc(nullptr);
  auto tiny = std::make_shared<FingerprintCache>(
      FingerprintCache::Config{.capacity = 8, .shards = 1, .verify_on_hit = false});
  const SlcCodec cached = make_slc(tiny);
  std::vector<BlockAnalysis> expected(views.size()), got(views.size());
  uncached.analyze_batch(views, expected.data());
  cached.analyze_batch(views, got.data());
  for (size_t i = 0; i < views.size(); ++i)
    expect_analysis_eq(got[i], expected[i], "block " + std::to_string(i));
  EXPECT_GT(tiny->counters().evictions, 0u) << "stream was sized to churn the cache";
}

TEST(CachedDecision, VerifyOnHitModeStaysIdenticalOnNearDuplicates) {
  const auto blocks = test::dedup_corpus(
      {.blocks = 256, .dup_fraction = 0.3, .flip_fraction = 0.5, .zero_fraction = 0.05, .seed = 53});
  const auto views = views_of(blocks);
  const SlcCodec uncached = make_slc(nullptr);
  auto paranoid = std::make_shared<FingerprintCache>(
      FingerprintCache::Config{.capacity = 1024, .shards = 1, .verify_on_hit = true});
  const SlcCodec cached = make_slc(paranoid);
  std::vector<BlockAnalysis> expected(views.size()), got(views.size());
  uncached.analyze_batch(views, expected.data());
  cached.analyze_batch(views, got.data());
  for (size_t i = 0; i < views.size(); ++i)
    expect_analysis_eq(got[i], expected[i], "block " + std::to_string(i));
  // One-byte neighbours must never verify as each other's content.
  EXPECT_EQ(paranoid->counters().collisions, 0u);
}

// --- BlockCodec-level differential (satellite: registry-wide sweep) ---------

TEST(BlockCodecDifferential, TslcProcessAndBatchMatchUncached) {
  struct Annotation {
    bool safe;
    size_t threshold;
  };
  const Annotation annotations[] = {{false, 16}, {true, 16}, {true, 4}, {true, 64}, {true, 0}};
  for (const auto& [cname, blocks] : fuzz_corpora()) {
    const auto uncached =
        CodecRegistry::instance().create_block_codec("TSLC-OPT", cached_options(nullptr));
    const auto cached = CodecRegistry::instance().create_block_codec(
        "TSLC-OPT", cached_options(std::make_shared<FingerprintCache>()));
    const auto per_block = ref::per_block_policy(cached);
    for (const auto& [safe, threshold] : annotations) {
      const PolicyRun expected = run_policy(*uncached, blocks, safe, threshold);
      // The per-block reference over the same cache must agree with both
      // batch kernels.
      const std::string what = std::string(cname) + " safe=" + std::to_string(safe) +
                               " thr=" + std::to_string(threshold);
      expect_run_eq(run_policy(*cached, blocks, safe, threshold), expected, what);
      expect_run_eq(run_policy(*per_block, blocks, safe, threshold), expected, what + " (scalar)");
    }
  }
}

TEST(BlockCodecDifferential, RegistrySweepEverySchemeCachedVsUncached) {
  // Satellite property sweep: for every registered scheme and every
  // (safe, threshold) annotation, attaching a fingerprint cache must be
  // invisible in the output. Lossless schemes ignore the cache entirely;
  // the TSLC variants route their decision through it.
  struct Annotation {
    bool safe;
    size_t threshold;
  };
  const Annotation annotations[] = {{false, 16}, {true, 16}, {true, 4}, {true, 0}};
  const auto corpora = fuzz_corpora();
  for (const std::string& name : CodecRegistry::instance().names()) {
    const auto uncached =
        CodecRegistry::instance().create_block_codec(name, cached_options(nullptr));
    const auto cached = CodecRegistry::instance().create_block_codec(
        name, cached_options(std::make_shared<FingerprintCache>()));
    for (const auto& [cname, blocks] : corpora) {
      for (const auto& [safe, threshold] : annotations) {
        expect_run_eq(run_policy(*cached, blocks, safe, threshold),
                      run_policy(*uncached, blocks, safe, threshold),
                      name + " " + cname + " safe=" + std::to_string(safe) +
                          " thr=" + std::to_string(threshold));
      }
    }
  }
}

// --- engine / commit-level differential -------------------------------------

struct CommitOutcome {
  std::vector<uint8_t> image;
  CommitStats stats;
};

CommitOutcome run_commit(const std::vector<uint8_t>& bytes,
                         std::shared_ptr<const BlockCodec> codec,
                         std::shared_ptr<CodecEngine> engine) {
  ApproxMemory mem;
  mem.set_engine(std::move(engine));
  mem.set_codec(std::move(codec));
  const RegionId r = mem.alloc("fuzz", bytes.size(), /*safe=*/true, 16);
  auto dst = mem.span<uint8_t>(r);
  std::copy(bytes.begin(), bytes.end(), dst.begin());
  mem.commit(r);
  CommitOutcome out;
  const auto img = mem.span<const uint8_t>(r);
  out.image.assign(img.begin(), img.end());
  out.stats = mem.stats();
  return out;
}

TEST(EngineCache, CommitsMatchUncachedAtEveryThreadCount) {
  for (const auto& [cname, blocks] : fuzz_corpora()) {
    const auto bytes = test::corpus_bytes(blocks);
    const CommitOutcome reference =
        run_commit(bytes, CodecRegistry::instance().create_block_codec(
                              "TSLC-OPT", cached_options(nullptr)),
                   nullptr);  // inline, single-threaded, uncached: the oracle
    for (const unsigned threads : {1u, 4u}) {
      auto cache = std::make_shared<FingerprintCache>();
      const CommitOutcome cached = run_commit(
          bytes, CodecRegistry::instance().create_block_codec("TSLC-OPT", cached_options(cache)),
          std::make_shared<CodecEngine>(threads));
      EXPECT_EQ(cached.image, reference.image) << cname << " threads=" << threads;
      EXPECT_TRUE(cached.stats.same_decisions(reference.stats))
          << cname << " threads=" << threads;
      EXPECT_EQ(cached.stats.cache.probes(), cached.stats.blocks)
          << cname << " every committed block must be probed";
    }
  }
}

TEST(EngineCache, RepeatTrafficHitsTheMemo) {
  const auto bytes =
      test::corpus_bytes(test::dedup_corpus({.blocks = 128, .seed = 61}));
  auto cache = std::make_shared<FingerprintCache>();
  ApproxMemory mem;
  mem.set_engine(nullptr);
  mem.set_codec(CodecRegistry::instance().create_block_codec("TSLC-OPT", cached_options(cache)));
  const RegionId a = mem.alloc("a", bytes.size(), true, 16);
  const RegionId b = mem.alloc("b", bytes.size(), true, 16);
  for (const RegionId r : {a, b}) {
    auto dst = mem.span<uint8_t>(r);
    std::copy(bytes.begin(), bytes.end(), dst.begin());
  }
  mem.commit(a);
  mem.commit(b);  // identical initial contents: every block was just decided
  const CommitStats sb = mem.region_stats(b);
  EXPECT_EQ(sb.cache.hits, sb.blocks);
  EXPECT_EQ(sb.cache.hit_rate(), 1.0);
}

TEST(EngineCache, AnalyzeStreamFoldsCacheCounters) {
  const auto blocks = test::dedup_corpus(
      {.blocks = 200, .dup_fraction = 0.4, .flip_fraction = 0.1, .zero_fraction = 0.1, .seed = 62});
  auto cache = std::make_shared<FingerprintCache>();
  const auto cached = CodecRegistry::instance().create("TSLC-OPT", cached_options(cache));
  const auto uncached = CodecRegistry::instance().create("TSLC-OPT", cached_options(nullptr));
  CodecEngine engine(2);
  const auto expected = engine.submit_analyze(*uncached, blocks).wait();
  const auto first = engine.submit_analyze(*cached, blocks).wait();
  const auto second = engine.submit_analyze(*cached, blocks).wait();
  ASSERT_EQ(first.blocks.size(), expected.blocks.size());
  for (size_t i = 0; i < expected.blocks.size(); ++i) {
    for (const auto* a : {&first, &second}) {
      EXPECT_EQ(a->blocks[i].bit_size, expected.blocks[i].bit_size) << i;
      EXPECT_EQ(a->blocks[i].lossy, expected.blocks[i].lossy) << i;
      EXPECT_EQ(a->blocks[i].truncated_symbols, expected.blocks[i].truncated_symbols) << i;
    }
  }
  EXPECT_EQ(expected.totals.cache.probes(), 0u);  // uncached codec never probes
  EXPECT_EQ(first.totals.cache.probes(), blocks.size());
  EXPECT_EQ(second.totals.cache.hits, blocks.size());  // the whole stream repeats
}

TEST(EngineCache, SharedCacheConcurrentCommitsStayDeterministic) {
  // The concurrency regression: N harness threads, each with its own
  // ApproxMemory, committing interleaved duplicate (shared corpus) and
  // unique (per-thread corpus) regions through ONE engine and ONE shared
  // fingerprint cache. Every thread must reproduce the single-threaded
  // uncached reference bit for bit, and no probe may be lost.
  constexpr unsigned kThreads = 4;
  const auto shared_blocks = test::dedup_corpus(
      {.blocks = 256, .dup_fraction = 0.5, .flip_fraction = 0.1, .zero_fraction = 0.1, .seed = 71});
  const auto shared_bytes = test::corpus_bytes(shared_blocks);
  const auto uncached_codec =
      CodecRegistry::instance().create_block_codec("TSLC-OPT", cached_options(nullptr));
  const CommitOutcome shared_ref = run_commit(shared_bytes, uncached_codec, nullptr);

  std::vector<std::vector<uint8_t>> unique_bytes(kThreads);
  std::vector<CommitOutcome> unique_ref(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    unique_bytes[t] =
        test::corpus_bytes(test::dedup_corpus({.blocks = 128, .seed = 100 + t}));
    unique_ref[t] = run_commit(unique_bytes[t], uncached_codec, nullptr);
  }

  auto engine = std::make_shared<CodecEngine>(kThreads);
  auto cache = std::make_shared<FingerprintCache>();
  const auto cached_codec =
      CodecRegistry::instance().create_block_codec("TSLC-OPT", cached_options(cache));

  std::vector<CommitOutcome> shared_got(kThreads), unique_got(kThreads);
  {
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        ApproxMemory mem;
        mem.set_engine(engine);
        mem.set_codec(cached_codec);
        const RegionId dup = mem.alloc("dup", shared_bytes.size(), true, 16);
        const RegionId uniq = mem.alloc("uniq", unique_bytes[t].size(), true, 16);
        {
          auto d = mem.span<uint8_t>(dup);
          std::copy(shared_bytes.begin(), shared_bytes.end(), d.begin());
          auto u = mem.span<uint8_t>(uniq);
          std::copy(unique_bytes[t].begin(), unique_bytes[t].end(), u.begin());
        }
        mem.commit_async(dup);  // both regions in flight at once
        mem.commit_async(uniq);
        mem.flush();
        const auto di = mem.span<const uint8_t>(dup);
        shared_got[t].image.assign(di.begin(), di.end());
        shared_got[t].stats = mem.region_stats(dup);
        const auto ui = mem.span<const uint8_t>(uniq);
        unique_got[t].image.assign(ui.begin(), ui.end());
        unique_got[t].stats = mem.region_stats(uniq);
      });
    }
    for (auto& w : workers) w.join();
  }

  uint64_t total_blocks = 0, total_probes = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(shared_got[t].image, shared_ref.image) << "thread " << t;
    EXPECT_TRUE(shared_got[t].stats.same_decisions(shared_ref.stats)) << "thread " << t;
    EXPECT_EQ(unique_got[t].image, unique_ref[t].image) << "thread " << t;
    EXPECT_TRUE(unique_got[t].stats.same_decisions(unique_ref[t].stats)) << "thread " << t;
    total_blocks += shared_got[t].stats.blocks + unique_got[t].stats.blocks;
    total_probes += shared_got[t].stats.cache.probes() + unique_got[t].stats.cache.probes();
  }
  // No lost updates: every committed block probed exactly once, whichever
  // worker carried it, and the cache's own tally agrees with the sum of the
  // per-commit tallies (in-span dedup twins aside, which only the
  // CommitStats side counts — hence <=).
  EXPECT_EQ(total_probes, total_blocks);
  EXPECT_LE(cache->counters().probes(), total_probes);
  EXPECT_GT(cache->counters().hits, 0u);
}

// --- server-level knobs -----------------------------------------------------

StreamConfig tslc_stream(const char* name, std::shared_ptr<FingerprintCache> cache) {
  StreamConfig cfg;
  cfg.name = name;
  cfg.codec = "TSLC-OPT";
  cfg.options = cached_options(std::move(cache));
  return cfg;
}

TEST(ServerCache, CachedStreamMatchesUncachedStream) {
  const auto bytes = test::corpus_bytes(test::dedup_corpus(
      {.blocks = 300, .dup_fraction = 0.5, .flip_fraction = 0.2, .zero_fraction = 0.1, .seed = 81}));
  CodecServer::Config scfg;
  scfg.engine = std::make_shared<CodecEngine>(2);
  CodecServer server(scfg);
  const StreamId u = server.open_stream(tslc_stream("uncached", nullptr));
  const StreamId c = server.open_stream(tslc_stream("cached", std::make_shared<FingerprintCache>()));
  auto tu = server.submit(u, Request{.bytes = bytes});
  auto tc = server.submit(c, Request{.bytes = bytes});
  const Response ru = tu.wait();
  const Response rc = tc.wait();
  ASSERT_EQ(ru.analysis.blocks.size(), rc.analysis.blocks.size());
  for (size_t i = 0; i < ru.analysis.blocks.size(); ++i) {
    EXPECT_EQ(rc.analysis.blocks[i].bit_size, ru.analysis.blocks[i].bit_size) << i;
    EXPECT_EQ(rc.analysis.blocks[i].lossy, ru.analysis.blocks[i].lossy) << i;
  }
  server.drain();
  EXPECT_TRUE(server.stream_stats(c).commit.same_decisions(server.stream_stats(u).commit));
}

TEST(ServerCache, SharedCacheDedupsAcrossStreams) {
  const auto bytes =
      test::corpus_bytes(test::dedup_corpus({.blocks = 256, .seed = 82}));
  CodecServer::Config scfg;
  scfg.engine = std::make_shared<CodecEngine>(2);
  CodecServer server(scfg);
  // Both streams attach one cache.
  const auto shared = std::make_shared<FingerprintCache>();
  const StreamId a = server.open_stream(tslc_stream("tenant-a", shared));
  const StreamId b = server.open_stream(tslc_stream("tenant-b", shared));
  server.submit(a, Request{.bytes = bytes}).wait();
  server.submit(b, Request{.bytes = bytes}).wait();
  server.drain();
  const CommitStats sa = server.stream_stats(a).commit;
  const CommitStats sb = server.stream_stats(b).commit;
  EXPECT_EQ(sa.cache.probes(), sa.blocks);
  // Stream b replays stream a's traffic; with the shared cache (and
  // identical codec identity: same trained model, MAG, threshold) it pays
  // zero decision probes' worth of misses.
  EXPECT_EQ(sb.cache.hits, sb.blocks);
  EXPECT_TRUE(sa.same_decisions(sb));
}

TEST(ServerCache, PrivateCachesIsolateStreams) {
  const auto bytes =
      test::corpus_bytes(test::dedup_corpus({.blocks = 256, .seed = 83}));  // all-fresh stream
  CodecServer::Config scfg;
  scfg.engine = std::make_shared<CodecEngine>(2);
  CodecServer server(scfg);
  // Private caches run in paranoia mode: per-stream, verify-on-hit.
  const auto private_verify = [] {
    FingerprintCache::Config cache_cfg;
    cache_cfg.verify_on_hit = true;
    return std::make_shared<FingerprintCache>(cache_cfg);
  };
  const StreamId a = server.open_stream(tslc_stream("iso-a", private_verify()));
  const StreamId b = server.open_stream(tslc_stream("iso-b", private_verify()));
  auto ta = server.submit(a, Request{.bytes = bytes});
  const Response ra = ta.wait();
  // wait() between the two b submits so the warm pass provably runs after
  // the cold pass finished inserting (concurrent batches would race the
  // hit/miss tallies this test pins down).
  auto tb1 = server.submit(b, Request{.bytes = bytes});  // same traffic, cold cache
  const Response rb1 = tb1.wait();
  auto tb2 = server.submit(b, Request{.bytes = bytes});  // warm now
  const Response rb2 = tb2.wait();
  server.drain();
  const CommitStats sa = server.stream_stats(a).commit;
  const CommitStats sb = server.stream_stats(b).commit;
  EXPECT_EQ(sa.cache.hits, 0u);  // nothing repeats within an all-fresh stream
  // b's first pass missed everything (no cross-stream sharing); the second
  // pass hit everything, all under verify-on-hit.
  EXPECT_EQ(sb.cache.misses, sb.blocks / 2);
  EXPECT_EQ(sb.cache.hits, sb.blocks / 2);
  ASSERT_EQ(rb1.analysis.blocks.size(), rb2.analysis.blocks.size());
  for (size_t i = 0; i < rb1.analysis.blocks.size(); ++i) {
    EXPECT_EQ(rb2.analysis.blocks[i].bit_size, rb1.analysis.blocks[i].bit_size) << i;
    EXPECT_EQ(rb2.analysis.blocks[i].bit_size, ra.analysis.blocks[i].bit_size) << i;
  }
}

}  // namespace
}  // namespace slc
