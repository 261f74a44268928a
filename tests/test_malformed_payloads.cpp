// Malformed payloads: decode is an input boundary (the server serves
// payloads that clients may hand back), so every compressed scheme's decoder
// must reject corrupt input instead of reading past it. A seeded mutation
// sweep — every strict truncation, bit flips, payloads cut to their header,
// and payloads spliced from two schemes — over real payloads of each
// scheme: every mutant must decode to a block_bytes block or throw
// std::invalid_argument. This binary runs under ASan+UBSan in CI, which
// turns any out-of-bounds read or write the checks miss into a failure.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compress/codec_registry.h"
#include "compress/e2mc.h"
#include "core/slc_codec.h"
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

/// Byte-padded header size of a compressed payload (0 for schemes without
/// a separate header).
size_t header_bytes(const Compressor& comp) {
  if (const auto* slc = dynamic_cast<const SlcCodec*>(&comp))
    return (slc->header_bits(kBlockBytes) + 7) / 8;
  if (const auto* e2mc = dynamic_cast<const E2mcCompressor*>(&comp))
    return (e2mc->header_bits(kBlockBytes) + 7) / 8;
  return 0;
}

/// Every registry scheme with a payload form: BDI, FPC, C-PACK, E2MC,
/// Huffman and the three TSLC variants.
std::vector<std::shared_ptr<const Compressor>> compressed_schemes(
    std::span<const uint8_t> training) {
  std::vector<std::shared_ptr<const Compressor>> out;
  for (const CodecInfo* info : CodecRegistry::instance().entries()) {
    if (info->make)
      out.push_back(CodecRegistry::instance().create(info->name, test::test_options(training)));
  }
  return out;
}

/// Value-similar floats (the entropy coders' and SLC's shape) followed by
/// narrow integers (BDI, FPC and C-PACK's shape).
std::vector<Block> mixed_corpus() {
  std::vector<Block> blocks = to_blocks(test::quantized_walk(61, 32));
  Rng rng(0xB10Cull);
  for (size_t b = 0; b < 32; ++b) {
    Block blk;
    const uint32_t base = static_cast<uint32_t>(rng.next_below(1u << 20));
    for (size_t w = 0; w < kBlockBytes / 4; ++w)
      blk.set_word32(w, rng.chance(0.3) ? 0u : base + static_cast<uint32_t>(rng.next_below(64)));
    blocks.push_back(blk);
  }
  return blocks;
}

TEST(MalformedPayloads, MutantsDecodeOrThrowInvalidArgument) {
  const auto training = test::quantized_walk(31, 256);
  const auto blocks = mixed_corpus();
  Rng rng(0x5EEDull);

  const auto schemes = compressed_schemes(training);
  ASSERT_EQ(schemes.size(), 8u);
  for (const auto& comp : schemes) {
    const std::string scheme = comp->name();
    const size_t header = header_bytes(*comp);
    size_t compressed = 0, rejected = 0, flips_decoded = 0;
    for (size_t b = 0; b < blocks.size(); ++b) {
      const std::string what = scheme + " block " + std::to_string(b);
      const CompressedBlock cb = comp->compress(blocks[b].view());
      ASSERT_TRUE(decodes(*comp, cb)) << what << ": an intact payload must decode";
      if (!cb.is_compressed) continue;
      ++compressed;
      ASSERT_GT(cb.payload.size(), header) << what;

      // Every strict truncation loses coded bits of the block.
      for (size_t len = 0; len < cb.payload.size(); ++len) {
        CompressedBlock cut = cb;
        cut.payload.resize(len);
        const bool ok = decodes(*comp, cut);
        EXPECT_FALSE(ok) << what << " truncated to " << len << " bytes";
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

      // A payload marked compressed that holds only its header.
      if (header > 0) {
        CompressedBlock header_only = cb;
        header_only.payload.resize(header);
        EXPECT_FALSE(decodes(*comp, header_only)) << what << " header-only";
      }
    }
    EXPECT_GE(compressed, 8u) << scheme << ": corpus must exercise the compressed path";
    EXPECT_GT(rejected, 0u) << scheme;
    EXPECT_GT(flips_decoded, 0u) << scheme << ": some flips land in code bits and still decode";
  }
}

// A payload whose front comes from one scheme and whose back comes from
// another, handed to both decoders: decode or reject, never read past it.
TEST(MalformedPayloads, CrossSchemeSplicesDecodeOrThrow) {
  const auto training = test::quantized_walk(31, 256);
  const auto blocks = mixed_corpus();
  const auto schemes = compressed_schemes(training);
  size_t spliced = 0;
  for (const auto& a : schemes) {
    for (const auto& b : schemes) {
      if (a == b) continue;
      for (size_t i = 0; i < blocks.size(); i += 5) {
        const CompressedBlock pa = a->compress(blocks[i].view());
        const CompressedBlock pb = b->compress(blocks[(i + 7) % blocks.size()].view());
        if (!pa.is_compressed || !pb.is_compressed) continue;
        CompressedBlock splice;
        splice.is_compressed = true;
        splice.payload.assign(pa.payload.begin(),
                              pa.payload.begin() + static_cast<ptrdiff_t>(pa.payload.size() / 2));
        splice.payload.insert(splice.payload.end(),
                              pb.payload.begin() + static_cast<ptrdiff_t>(pb.payload.size() / 2),
                              pb.payload.end());
        splice.bit_size = splice.payload.size() * 8;
        decodes(*a, splice);
        decodes(*b, splice);
        ++spliced;
      }
    }
  }
  EXPECT_GT(spliced, 0u);
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
