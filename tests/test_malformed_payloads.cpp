// Malformed payloads: decode is an input boundary (the server serves
// payloads that clients may hand back), so the E2MC and TSLC-* decoders must
// reject corrupt input instead of reading past it. A seeded mutation sweep —
// truncation, bit flips, payloads cut to their header — over real payloads
// of each scheme: every mutant must decode to a block_bytes block or throw
// std::invalid_argument. This binary runs under ASan+UBSan in CI, which turns
// any out-of-bounds read or write the checks miss into a failure.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compress/codec_registry.h"
#include "compress/e2mc.h"
#include "core/slc_compressor.h"
#include "test_util.h"

namespace slc {
namespace {

/// True when `cb` decoded to a full block, false when the decoder rejected
/// it with std::invalid_argument (any other exception fails the test).
bool decodes(const Compressor& comp, const CompressedBlock& cb) {
  try {
    const Block out = comp.decompress(cb, kBlockBytes);
    EXPECT_EQ(out.size(), kBlockBytes);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

/// Byte-padded header size of a compressed payload of `comp`.
size_t header_bytes(const Compressor& comp) {
  if (const auto* slc = dynamic_cast<const SlcCompressor*>(&comp))
    return (slc->codec().header_bits(kBlockBytes) + 7) / 8;
  return (dynamic_cast<const E2mcCompressor&>(comp).header_bits(kBlockBytes) + 7) / 8;
}

TEST(MalformedPayloads, MutantsDecodeOrThrowInvalidArgument) {
  const auto training = test::quantized_walk(31, 256);
  const auto blocks = to_blocks(test::quantized_walk(61, 48));
  Rng rng(0x5EEDull);

  for (const char* scheme : {"E2MC", "TSLC-SIMP", "TSLC-PRED", "TSLC-OPT"}) {
    const auto comp = CodecRegistry::instance().create(scheme, test::test_options(training));
    const size_t header = header_bytes(*comp);
    size_t compressed = 0, rejected = 0, flips_decoded = 0;
    for (size_t b = 0; b < blocks.size(); ++b) {
      const std::string what = std::string(scheme) + " block " + std::to_string(b);
      const CompressedBlock cb = comp->compress(blocks[b].view());
      ASSERT_TRUE(decodes(*comp, cb)) << what << ": an intact payload must decode";
      if (!cb.is_compressed) continue;
      ++compressed;
      ASSERT_GT(cb.payload.size(), header) << what;

      // Every strict truncation loses coded bits of the last way.
      for (int t = 0; t < 4; ++t) {
        CompressedBlock cut = cb;
        cut.payload.resize(rng.next_below(cb.payload.size()));
        const bool ok = decodes(*comp, cut);
        EXPECT_FALSE(ok) << what << " truncated to " << cut.payload.size() << " bytes";
        rejected += ok ? 0 : 1;
      }

      // Bit flips may still decode (to some block), or be rejected.
      for (int f = 0; f < 8; ++f) {
        CompressedBlock flipped = cb;
        const size_t flips = 1 + rng.next_below(3);
        for (size_t k = 0; k < flips; ++k) {
          const size_t bit = rng.next_below(flipped.payload.size() * 8);
          flipped.payload[bit / 8] ^= static_cast<uint8_t>(0x80u >> (bit % 8));
        }
        const bool ok = decodes(*comp, flipped);
        flips_decoded += ok ? 1 : 0;
        rejected += ok ? 0 : 1;
      }

      // A payload marked compressed that holds only its header, or nothing.
      CompressedBlock header_only = cb;
      header_only.payload.resize(header);
      EXPECT_FALSE(decodes(*comp, header_only)) << what << " header-only";
      CompressedBlock empty = cb;
      empty.payload.clear();
      EXPECT_FALSE(decodes(*comp, empty)) << what << " empty";
    }
    EXPECT_GT(compressed, blocks.size() / 2) << scheme << ": corpus must mostly compress";
    EXPECT_GT(rejected, 0u) << scheme;
    EXPECT_GT(flips_decoded, 0u) << scheme << ": some flips land in code bits and still decode";
  }
}

// The TSLC header's approximated window (ss + len) is attacker-controlled:
// a window running past the block must be rejected, not filled.
TEST(MalformedPayloads, SlcWindowPastBlockEndThrows) {
  const auto training = test::quantized_walk(31, 256);
  const auto comp = CodecRegistry::instance().create("TSLC-OPT", test::test_options(training));
  const auto blocks = to_blocks(test::quantized_walk(62, 16));
  size_t tested = 0;
  for (const Block& b : blocks) {
    CompressedBlock cb = comp->compress(b.view());
    if (!cb.is_compressed) continue;
    // Fig. 6 header: m (1) | ss (6) | len-1 (4): set m, ss = 63, len = 16.
    cb.payload[0] = static_cast<uint8_t>(0x80 | (63 << 1) | 1);
    cb.payload[1] = static_cast<uint8_t>(0xE0 | (cb.payload[1] & 0x1F));
    EXPECT_THROW(comp->decompress(cb, kBlockBytes), std::invalid_argument);
    ++tested;
  }
  EXPECT_GT(tested, 0u);
}

}  // namespace
}  // namespace slc
