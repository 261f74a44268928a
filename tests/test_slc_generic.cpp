// Generic SLC over FPC (Sec. I: "SLC is not limited to E2MC").
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "core/slc_generic.h"

namespace slc {
namespace {

// Narrow-integer blocks: FPC's sweet spot, with enough spread that sizes
// land around burst boundaries.
Block narrow_int_block(Rng& rng) {
  Block b;
  for (size_t i = 0; i < 32; ++i) {
    switch (rng.next_below(4)) {
      case 0: b.set_word32(i, 0); break;
      case 1: b.set_word32(i, static_cast<uint32_t>(rng.next_below(256))); break;
      case 2: b.set_word32(i, static_cast<uint32_t>(rng.next_below(65536))); break;
      default: b.set_word32(i, static_cast<uint32_t>(rng.next())); break;
    }
  }
  return b;
}

TEST(SlcFpc, WordCostsMatchFpcTotal) {
  Rng rng(1);
  const SlcFpcCodec codec;
  const FpcCompressor fpc;
  for (int t = 0; t < 200; ++t) {
    const Block b = narrow_int_block(rng);
    const auto costs = codec.word_costs(b.view());
    const size_t total = std::accumulate(costs.begin(), costs.end(), size_t{0});
    const auto cb = fpc.compress(b.view());
    if (cb.is_compressed) {
      EXPECT_EQ(total, cb.bit_size) << "per-word costs must sum to the FPC size";
    }
  }
}

TEST(SlcFpc, LosslessWhenBelowOneBurst) {
  Block b;  // zeros
  const SlcFpcCodec codec;
  const auto info = codec.analyze(b.view());
  EXPECT_FALSE(info.lossy);
  EXPECT_EQ(bursts_for_bits(info.bit_size, 32), 1u);
  EXPECT_EQ(codec.roundtrip(b.view()), b);
}

TEST(SlcFpc, LossyBlocksSaveBursts) {
  Rng rng(2);
  const SlcFpcCodec codec;
  size_t lossy = 0;
  for (int t = 0; t < 2000; ++t) {
    const Block b = narrow_int_block(rng);
    const auto info = codec.analyze(b.view());
    if (info.lossy) {
      ++lossy;
      EXPECT_LT(bursts_for_bits(info.bit_size, 32), bursts_for_bits(info.lossless_bits, 32));
      EXPECT_LE(info.truncated_symbols, kMaxApproxSymbols);
    }
  }
  EXPECT_GT(lossy, 0u) << "mixed-width integer data must exercise the lossy path";
}

TEST(SlcFpc, RoundtripOnlyChangesTruncatedWords) {
  Rng rng(3);
  const SlcFpcCodec codec;
  for (int t = 0; t < 2000; ++t) {
    const Block b = narrow_int_block(rng);
    const auto info = codec.analyze(b.view());
    const Block out = codec.roundtrip(b.view());
    if (!info.lossy) {
      EXPECT_EQ(out, b);
      continue;
    }
    size_t diff = 0;
    for (size_t w = 0; w < 32; ++w)
      if (out.view().word32(w) != b.view().word32(w)) ++diff;
    EXPECT_LE(diff, info.truncated_symbols);
  }
}

TEST(SlcFpc, PredictionUsesNeighbourWord) {
  Rng rng(4);
  GenericSlcConfig cfg;
  cfg.predict = true;
  const SlcFpcCodec pred(cfg);
  cfg.predict = false;
  const SlcFpcCodec zero(cfg);
  for (int t = 0; t < 5000; ++t) {
    const Block b = narrow_int_block(rng);
    const auto info = pred.analyze(b.view());
    if (!info.lossy) continue;
    const Block p = pred.roundtrip(b.view());
    const Block z = zero.roundtrip(b.view());
    // Find the truncated window via the zero-fill variant (first changed
    // word is the window start; the predictor is the word before it).
    size_t start = 32;
    for (size_t w = 0; w < 32; ++w) {
      if (z.view().word32(w) != b.view().word32(w)) {
        EXPECT_EQ(z.view().word32(w), 0u);
        if (start == 32) start = w;
      }
    }
    if (start == 32 || start == 0) continue;  // need a predecessor predictor
    const uint32_t predictor = b.view().word32(start - 1);
    for (size_t w = 0; w < 32; ++w) {
      if (z.view().word32(w) != b.view().word32(w)) {
        EXPECT_EQ(p.view().word32(w), predictor);
      }
    }
    return;
  }
}

TEST(SlcFpc, ThresholdZeroDisablesLossy) {
  Rng rng(5);
  GenericSlcConfig cfg;
  cfg.threshold_bytes = 0;
  const SlcFpcCodec codec(cfg);
  for (int t = 0; t < 500; ++t) {
    const Block b = narrow_int_block(rng);
    EXPECT_FALSE(codec.analyze(b.view()).lossy);
    EXPECT_EQ(codec.roundtrip(b.view()), b);
  }
}

class SlcFpcMagTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SlcFpcMagTest, BurstAccountingAcrossMags) {
  Rng rng(6);
  GenericSlcConfig cfg;
  cfg.mag_bytes = GetParam();
  cfg.threshold_bytes = GetParam() / 2;
  const SlcFpcCodec codec(cfg);
  for (int t = 0; t < 1000; ++t) {
    const Block b = narrow_int_block(rng);
    const auto info = codec.analyze(b.view());
    EXPECT_LE(bursts_for_bits(info.bit_size, GetParam()),
              bursts_for_bits(info.lossless_bits, GetParam()));
    EXPECT_LE(info.bit_size, kBlockBytes * 8);
  }
}

INSTANTIATE_TEST_SUITE_P(Mags, SlcFpcMagTest, ::testing::Values<size_t>(16, 32, 64));

}  // namespace
}  // namespace slc
