// SLC compressed-block header (Fig. 6): m + ss + len + 3 pdps = 32 bits.
#include <gtest/gtest.h>

#include <vector>

#include "core/slc_header.h"

namespace slc {
namespace {

// Writes `h` for the paper geometry (128 B, 4 ways) and returns the bytes.
std::vector<uint8_t> written(const SlcHeader& h) {
  std::vector<uint8_t> bytes(8);
  BitWriter w(bytes.data());
  h.write(w, 128, 4, 64);
  bytes.resize(w.finish());
  return bytes;
}

TEST(SlcHeader, BitsMatchFig6) {
  // 1 (m) + 6 (ss) + 4 (len) + 3*7 (pdp) = 32 bits for 128 B / 4 ways.
  EXPECT_EQ(SlcHeader::bits(128, 4, 64), 32u);
  EXPECT_EQ(SlcHeader::padded_bytes(128, 4, 64), 4u);
}

TEST(SlcHeader, BitsForOtherGeometries) {
  // 64 B block, 2 ways: 1 + 5 (32 symbols) + 4 + 1*6 = 16 bits.
  EXPECT_EQ(SlcHeader::bits(64, 2, 32), 16u);
}

TEST(SlcHeader, RoundTripLossless) {
  SlcHeader h;
  h.lossy = false;
  h.way_offsets[1] = 17;
  h.way_offsets[2] = 43;
  h.way_offsets[3] = 101;
  const auto bytes = written(h);
  EXPECT_EQ(bytes.size(), 4u);
  BitReader r(bytes);
  const SlcHeader back = SlcHeader::read(r, 128, 4, 64);
  EXPECT_FALSE(back.lossy);
  EXPECT_EQ(back.approx_count, 0);
  EXPECT_EQ(back.way_offsets[1], 17);
  EXPECT_EQ(back.way_offsets[2], 43);
  EXPECT_EQ(back.way_offsets[3], 101);
}

TEST(SlcHeader, RoundTripLossy) {
  SlcHeader h;
  h.lossy = true;
  h.start_symbol = 48;
  h.approx_count = 16;  // max: stored as 15 in the 4-bit field
  const auto bytes = written(h);
  BitReader r(bytes);
  const SlcHeader back = SlcHeader::read(r, 128, 4, 64);
  EXPECT_TRUE(back.lossy);
  EXPECT_EQ(back.start_symbol, 48);
  EXPECT_EQ(back.approx_count, 16);
}

TEST(SlcHeader, AllLenValues) {
  for (uint8_t count = 1; count <= 16; ++count) {
    SlcHeader h;
    h.lossy = true;
    h.start_symbol = static_cast<uint8_t>(count % 64);
    h.approx_count = count;
    const auto bytes = written(h);
    BitReader r(bytes);
    const SlcHeader back = SlcHeader::read(r, 128, 4, 64);
    EXPECT_EQ(back.approx_count, count);
    EXPECT_EQ(back.start_symbol, count % 64);
  }
}

TEST(SlcHeader, ReaderLeavesPositionByteAligned) {
  SlcHeader h;
  std::vector<uint8_t> bytes(8);
  BitWriter w(bytes.data());
  h.write(w, 128, 4, 64);
  w.put(0xAB, 8);  // payload byte after the header
  bytes.resize(w.finish());
  BitReader r(bytes);
  SlcHeader::read(r, 128, 4, 64);
  EXPECT_EQ(r.position() % 8, 0u);
  EXPECT_EQ(r.get(8), 0xABu);
}

}  // namespace
}  // namespace slc
