// FPC: pattern classification, zero runs, and the round-trip property.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "compress/fpc.h"
#include "reference_codecs.h"

namespace slc {
namespace {

TEST(Fpc, ClassifyPatterns) {
  EXPECT_EQ(FpcCompressor::classify(0x00000003), FpcPattern::kSignExt4);
  EXPECT_EQ(FpcCompressor::classify(0xFFFFFFFD), FpcPattern::kSignExt4);  // -3
  EXPECT_EQ(FpcCompressor::classify(0x0000007F), FpcPattern::kSignExt8);
  EXPECT_EQ(FpcCompressor::classify(0xFFFFFF80), FpcPattern::kSignExt8);
  EXPECT_EQ(FpcCompressor::classify(0x00001234), FpcPattern::kSignExt16);
  EXPECT_EQ(FpcCompressor::classify(0x12340000), FpcPattern::kHalfwordPadded);
  EXPECT_EQ(FpcCompressor::classify(0x007F0071), FpcPattern::kTwoHalfwordsSE);
  EXPECT_EQ(FpcCompressor::classify(0xABABABAB), FpcPattern::kRepeatedBytes);
  EXPECT_EQ(FpcCompressor::classify(0x12345678), FpcPattern::kUncompressed);
}

TEST(Fpc, PayloadBits) {
  EXPECT_EQ(FpcCompressor::payload_bits(FpcPattern::kZeroRun), 3u);
  EXPECT_EQ(FpcCompressor::payload_bits(FpcPattern::kSignExt4), 4u);
  EXPECT_EQ(FpcCompressor::payload_bits(FpcPattern::kUncompressed), 32u);
}

TEST(Fpc, AllZerosUsesRuns) {
  Block b;  // 32 zero words -> 4 runs of 8 -> 4 * 6 bits
  const FpcCompressor c;
  const auto cb = c.compress(b.view());
  EXPECT_TRUE(cb.is_compressed);
  EXPECT_EQ(cb.bit_size, 4u * 6u);
  EXPECT_EQ(c.decompress(cb, kBlockBytes), b);
}

TEST(Fpc, ZeroRunSplitByValue) {
  Block b;
  b.set_word32(3, 0x12345678);  // splits the zero run
  const FpcCompressor c;
  const auto cb = c.compress(b.view());
  EXPECT_EQ(c.decompress(cb, kBlockBytes), b);
}

TEST(Fpc, SmallIntegerBlockCompressesWell) {
  Block b;
  for (size_t i = 0; i < 32; ++i) b.set_word32(i, static_cast<uint32_t>(i % 7));
  const FpcCompressor c;
  const auto cb = c.compress(b.view());
  EXPECT_TRUE(cb.is_compressed);
  // All words fit kSignExt4 (3+4 bits) or zero runs: far below 30 bytes.
  EXPECT_LT(cb.byte_size(), 30u);
  EXPECT_EQ(c.decompress(cb, kBlockBytes), b);
}

TEST(Fpc, NegativeValuesSignExtend) {
  Block b;
  for (size_t i = 0; i < 32; ++i) b.set_word32(i, static_cast<uint32_t>(-static_cast<int>(i)));
  const FpcCompressor c;
  EXPECT_EQ(c.decompress(c.compress(b.view()), kBlockBytes), b);
}

TEST(Fpc, RandomDataFallsBack) {
  Rng rng(33);
  Block b;
  for (size_t i = 0; i < 32; ++i) b.set_word32(i, static_cast<uint32_t>(rng.next()));
  const FpcCompressor c;
  const auto cb = c.compress(b.view());
  // Either fell back or stayed compressed; round trip must hold regardless.
  EXPECT_EQ(c.decompress(cb, kBlockBytes), b);
}

TEST(FpcProperty, RoundTripMixed) {
  Rng rng(44);
  const FpcCompressor c;
  for (int trial = 0; trial < 500; ++trial) {
    Block b;
    for (size_t i = 0; i < 32; ++i) {
      switch (rng.next_below(6)) {
        case 0: b.set_word32(i, 0); break;
        case 1: b.set_word32(i, static_cast<uint32_t>(rng.next_below(16)) - 8u); break;
        case 2: b.set_word32(i, static_cast<uint32_t>(rng.next_below(65536))); break;
        case 3: b.set_word32(i, static_cast<uint32_t>(rng.next_below(256)) * 0x01010101u); break;
        case 4: b.set_word32(i, static_cast<uint32_t>(rng.next_below(65536)) << 16); break;
        default: b.set_word32(i, static_cast<uint32_t>(rng.next())); break;
      }
    }
    const auto cb = c.compress(b.view());
    EXPECT_EQ(c.decompress(cb, kBlockBytes), b) << "trial " << trial;
    EXPECT_LE(cb.bit_size, kBlockBytes * 8);
    EXPECT_EQ(cb.payload, ref::fpc_compress(b.view()).payload) << "trial " << trial;
  }
}

}  // namespace
}  // namespace slc
