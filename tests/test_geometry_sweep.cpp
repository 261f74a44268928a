// Cross-geometry property sweeps: the codec stack must hold its invariants
// for non-default block sizes, way counts, MAGs and table sizes — the
// configuration space a downstream user can reach through the public API.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/slc_codec.h"

namespace slc {
namespace {

std::vector<uint8_t> quantized_floats(uint64_t seed, size_t bytes) {
  Rng rng(seed);
  std::vector<uint8_t> data;
  double walk = 20.0;
  for (size_t i = 0; i < bytes / 4; ++i) {
    walk += rng.uniform(-0.8, 0.8);
    if (rng.chance(0.02)) walk = rng.uniform(1.0, 200.0);
    const float v = static_cast<float>(std::round(walk * 8.0) / 8.0);
    uint32_t bits;
    __builtin_memcpy(&bits, &v, 4);
    for (int k = 0; k < 4; ++k) data.push_back(static_cast<uint8_t>(bits >> (8 * k)));
  }
  return data;
}

// (block_bytes, num_ways)
using Geometry = std::tuple<size_t, unsigned>;

class E2mcGeometryTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(E2mcGeometryTest, RoundTripAndSizeAccounting) {
  const auto [block_bytes, ways] = GetParam();
  const auto data = quantized_floats(7 + block_bytes + ways, 512 * block_bytes);
  E2mcConfig cfg;
  cfg.num_ways = ways;
  cfg.sample_fraction = 0.2;
  auto comp = E2mcCompressor::train(data, cfg);
  for (size_t i = 0; i < 256; ++i) {
    const Block b(std::span<const uint8_t>(data).subspan(i * block_bytes, block_bytes));
    const auto cb = comp->compress(b.view());
    EXPECT_EQ(comp->compressed_bits(b.view()), cb.bit_size);
    EXPECT_LE(cb.bit_size, block_bytes * 8);
    EXPECT_EQ(comp->decompress(cb, block_bytes), b) << "block " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(BlocksAndWays, E2mcGeometryTest,
                         ::testing::Values(Geometry{64, 2}, Geometry{64, 4},
                                           Geometry{128, 2}, Geometry{128, 4},
                                           Geometry{128, 8}, Geometry{256, 4}));

class SlcGeometryTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(SlcGeometryTest, InvariantsAcrossBlockGeometry) {
  const auto [block_bytes, ways] = GetParam();
  const size_t n_sym = block_bytes * 8 / kSymbolBits;
  const auto data = quantized_floats(99 + block_bytes + ways, 512 * block_bytes);
  E2mcConfig ecfg;
  ecfg.num_ways = ways;
  ecfg.sample_fraction = 0.2;
  auto e2mc = E2mcCompressor::train(data, ecfg);
  SlcConfig cfg;
  cfg.mag_bytes = 32;
  cfg.threshold_bytes = 16;
  cfg.variant = SlcVariant::kOpt;
  const SlcCodec codec(e2mc, cfg);

  for (size_t i = 0; i < 256; ++i) {
    const Block b(std::span<const uint8_t>(data).subspan(i * block_bytes, block_bytes));
    const BlockAnalysis a = codec.analyze(b.view());
    const Block out = codec.decompress(codec.compress(b.view()), block_bytes);
    if (!a.lossy) {
      EXPECT_EQ(out, b);
      continue;
    }
    // Lossy: at most kMaxApproxSymbols symbols may differ.
    size_t diff = 0;
    for (size_t s = 0; s < n_sym; ++s)
      if (out.symbol(s) != b.symbol(s)) ++diff;
    EXPECT_LE(diff, kMaxApproxSymbols);
    EXPECT_LE(bursts_for_bits(a.bit_size, 32, block_bytes),
              bursts_for_bits(a.lossless_bits, 32, block_bytes));
  }
}

INSTANTIATE_TEST_SUITE_P(BlocksAndWays, SlcGeometryTest,
                         ::testing::Values(Geometry{128, 2}, Geometry{128, 4},
                                           Geometry{256, 4}));

// analyze() must agree with compress() everywhere — the simulator's fast
// path cannot drift from the functional path.
class AnalyzeConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(AnalyzeConsistencyTest, AnalyzeMatchesCompress) {
  const auto data = quantized_floats(static_cast<uint64_t>(GetParam()), 512 * kBlockBytes);
  E2mcConfig ecfg;
  ecfg.sample_fraction = 0.3;
  auto e2mc = E2mcCompressor::train(data, ecfg);
  SlcConfig cfg;
  cfg.threshold_bytes = 16;
  cfg.variant = static_cast<SlcVariant>(GetParam() % 3);
  const SlcCodec codec(e2mc, cfg);
  for (size_t i = 0; i < 256; ++i) {
    const Block b(std::span<const uint8_t>(data).subspan(i * kBlockBytes, kBlockBytes));
    const BlockAnalysis a = codec.analyze(b.view());
    const CompressedBlock cb = codec.compress(b.view());
    EXPECT_EQ(a.bit_size, cb.bit_size);
    EXPECT_EQ(a.is_compressed, cb.is_compressed);
    if (a.is_compressed) {
      EXPECT_LE(a.bit_size, a.lossless_bits);
    }
    if (!a.lossy) {
      EXPECT_EQ(codec.decompress(cb, kBlockBytes), b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyzeConsistencyTest, ::testing::Range(1, 7));

// Table-size sweep: larger tables never increase the compressed size of the
// data they were trained on (more coverage, shorter escapes).
class TableSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TableSweepTest, CompressionImprovesOrHolds) {
  const auto data = quantized_floats(1234, 512 * kBlockBytes);
  E2mcConfig small_cfg;
  small_cfg.table_entries = 64;
  small_cfg.sample_fraction = 0.5;
  E2mcConfig big_cfg = small_cfg;
  big_cfg.table_entries = GetParam();
  auto small = E2mcCompressor::train(data, small_cfg);
  auto big = E2mcCompressor::train(data, big_cfg);
  uint64_t small_bits = 0, big_bits = 0;
  for (size_t i = 0; i < 256; ++i) {
    const Block b(std::span<const uint8_t>(data).subspan(i * kBlockBytes, kBlockBytes));
    small_bits += small->compressed_bits(b.view());
    big_bits += big->compressed_bits(b.view());
  }
  EXPECT_LE(big_bits, small_bits + small_bits / 20)
      << "bigger tables must not cost more than noise";
}

INSTANTIATE_TEST_SUITE_P(Tables, TableSweepTest, ::testing::Values(256, 1024, 4096));

}  // namespace
}  // namespace slc
