// BitWriter/BitReader: the foundation every codec builds on.
#include <gtest/gtest.h>

#include <vector>

#include "common/bitstream.h"
#include "common/rng.h"
#include "reference_codecs.h"

namespace slc {
namespace {

// Runs `emit` on a BitWriter over a scratch buffer and returns the finished
// stream.
template <class Emit>
std::vector<uint8_t> written(Emit emit, size_t capacity = 64) {
  std::vector<uint8_t> buf(capacity);
  BitWriter w(buf.data());
  emit(w);
  buf.resize(w.finish());
  return buf;
}

TEST(BitWriter, EmptyStream) {
  uint8_t buf[1] = {0xEE};
  BitWriter w(buf);
  EXPECT_EQ(w.bit_size(), 0u);
  EXPECT_EQ(w.finish(), 0u);
  EXPECT_EQ(buf[0], 0xEE);  // nothing written
}

TEST(BitWriter, SingleBits) {
  uint8_t buf[1] = {};
  BitWriter w(buf);
  w.put_bit(true);
  w.put_bit(false);
  w.put_bit(true);
  EXPECT_EQ(w.bit_size(), 3u);
  ASSERT_EQ(w.finish(), 1u);
  EXPECT_EQ(buf[0], 0b10100000);  // MSB-first
}

TEST(BitWriter, MultiBitMsbFirst) {
  const auto bytes = written([](BitWriter& w) {
    w.put(0b1011, 4);
    w.put(0b0110, 4);
  });
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10110110);
}

TEST(BitWriter, CrossesByteBoundary) {
  const auto bytes = written([](BitWriter& w) {
    w.put(0x3FF, 10);  // 10 ones
    w.put(0, 6);
  });
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0xFF);
  EXPECT_EQ(bytes[1], 0xC0);
}

TEST(BitWriter, MasksValueToWidth) {
  uint8_t buf[1] = {};
  BitWriter w(buf);
  w.put(0xFFFF, 4);  // only the low 4 bits count
  EXPECT_EQ(w.bit_size(), 4u);
  w.finish();
  EXPECT_EQ(buf[0], 0xF0);
}

TEST(BitWriter, ZeroWidthIsNoop) {
  uint8_t buf[1] = {};
  BitWriter w(buf);
  w.put(123, 0);
  EXPECT_EQ(w.bit_size(), 0u);
}

TEST(BitWriter, SixtyFourBitValue) {
  const uint64_t v = 0xDEADBEEFCAFEBABEull;
  const auto bytes = written([&](BitWriter& w) { w.put(v, 64); });
  BitReader r(bytes);
  EXPECT_EQ(r.get(64), v);
}

// The production writer against the reference bit-at-a-time writer: seeded
// random put(value, nbits) sequences over every width 0..64 — including the
// > 56-bit split path, arriving at every accumulator fill level — must give
// the same bytes and bit size.
TEST(BitWriter, MatchesReferenceWriterOnRandomSequences) {
  Rng rng(0xB17B17ull);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n_puts = 1 + rng.next_below(80);
    std::vector<uint8_t> buf(n_puts * 8 + 1);
    BitWriter w(buf.data());
    ref::BitWriter expected;
    for (size_t i = 0; i < n_puts; ++i) {
      const auto nbits = static_cast<unsigned>(rng.next_below(65));
      const uint64_t value = rng.next();  // high garbage bits must be masked
      w.put(value, nbits);
      expected.put(value, nbits);
      ASSERT_EQ(w.bit_size(), expected.bit_size()) << "trial " << trial << " put " << i;
    }
    buf.resize(w.finish());
    EXPECT_EQ(buf, expected.bytes()) << "trial " << trial;
  }
}

TEST(BitReader, ReadsBackWrittenValues) {
  const auto bytes = written([](BitWriter& w) {
    w.put(5, 3);
    w.put(1000, 12);
    w.put(1, 1);
  });
  BitReader r(bytes);
  EXPECT_EQ(r.get(3), 5u);
  EXPECT_EQ(r.get(12), 1000u);
  EXPECT_TRUE(r.get_bit());
}

TEST(BitReader, PeekDoesNotConsume) {
  const auto bytes = written([](BitWriter& w) { w.put(0b1010, 4); });
  BitReader r(bytes);
  EXPECT_EQ(r.peek(4), 0b1010u);
  EXPECT_EQ(r.position(), 0u);
  EXPECT_EQ(r.get(4), 0b1010u);
  EXPECT_EQ(r.position(), 4u);
}

TEST(BitReader, OverrunReturnsZerosAndFlags) {
  const auto bytes = written([](BitWriter& w) { w.put(0xFF, 8); });
  BitReader r(bytes);
  r.skip(8);
  EXPECT_EQ(r.get(8), 0u);
  EXPECT_TRUE(r.overrun());
}

TEST(BitReader, SeekRepositions) {
  const auto bytes = written([](BitWriter& w) {
    w.put(0xAB, 8);
    w.put(0xCD, 8);
  });
  BitReader r(bytes);
  r.seek(8);
  EXPECT_EQ(r.get(8), 0xCDu);
  r.seek(0);
  EXPECT_EQ(r.get(8), 0xABu);
}

// Property: any sequence of (value, width) pairs round-trips.
TEST(BitStreamProperty, RandomRoundTrip) {
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<uint64_t, unsigned>> items;
    for (int i = 0; i < 50; ++i) {
      const unsigned width = 1 + static_cast<unsigned>(rng.next_below(64));
      const uint64_t value =
          width == 64 ? rng.next() : rng.next() & ((uint64_t{1} << width) - 1);
      items.emplace_back(value, width);
    }
    const auto bytes = written(
        [&](BitWriter& w) {
          for (const auto& [value, width] : items) w.put(value, width);
        },
        items.size() * 8);
    BitReader r(bytes);
    for (const auto& [value, width] : items) {
      EXPECT_EQ(r.get(width), value) << "trial " << trial;
    }
    EXPECT_FALSE(r.overrun());
  }
}

}  // namespace
}  // namespace slc
