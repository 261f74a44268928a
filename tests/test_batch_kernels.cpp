// Batch-kernel equivalence: for every registry-listed codec, the
// analyze_batch/compress_batch kernels — the library's only encoders — must
// be byte-identical to the per-block reference encoders of
// tests/reference_codecs.cpp, on random, all-zero, denormal-heavy,
// value-similar and repeat/delta data, for any batch split, with the SIMD
// sub-kernels on and off. This is the contract that lets the CodecEngine and
// CodecServer route every shard through the batch entry points; it runs
// under the ASan+UBSan CI job like the rest of this binary.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compress/bdi.h"
#include "compress/block_codec.h"
#include "compress/codec_registry.h"
#include "compress/cpack.h"
#include "compress/fpc.h"
#include "compress/simd_dispatch.h"
#include "reference_codecs.h"
#include "test_util.h"

namespace slc {
namespace {

std::vector<Block> random_blocks(size_t n) {
  Rng rng(0xB10CB10Cull);
  std::vector<uint8_t> data(n * kBlockBytes);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next_below(256));
  return to_blocks(data);
}

std::vector<Block> zero_blocks(size_t n) {
  return to_blocks(std::vector<uint8_t>(n * kBlockBytes, 0));
}

// Mostly denormal floats (zero exponent, random mantissa) with zeros mixed
// in: the data shape that stresses FPC's sign-extension classes and BDI's
// near-zero immediates.
std::vector<Block> denormal_blocks(size_t n) {
  Rng rng(0xDE40A11ull);
  std::vector<uint8_t> data;
  data.reserve(n * kBlockBytes);
  for (size_t i = 0; i < n * kBlockBytes / 4; ++i) {
    uint32_t bits = 0;
    if (!rng.chance(0.25)) {
      bits = static_cast<uint32_t>(rng.next()) & 0x007FFFFFu;  // denormal mantissa
      if (rng.chance(0.5)) bits |= 0x80000000u;                // random sign
    }
    for (int k = 0; k < 4; ++k) data.push_back(static_cast<uint8_t>(bits >> (8 * k)));
  }
  return to_blocks(data);
}

// Repeated 64-bit values and small-delta integer runs (BDI's and C-PACK's
// sweet spots), including blocks that alternate the two.
std::vector<Block> repeat_delta_blocks(size_t n) {
  Rng rng(0x4E9EA7ull);
  std::vector<uint8_t> data;
  data.reserve(n * kBlockBytes);
  uint64_t base = 0x1122334455667788ull;
  for (size_t i = 0; i < n * kBlockBytes / 8; ++i) {
    if (i % 16 == 0) base = rng.next();
    const uint64_t v = rng.chance(0.5) ? base : base + rng.next_below(200);
    for (int k = 0; k < 8; ++k) data.push_back(static_cast<uint8_t>(v >> (8 * k)));
  }
  return to_blocks(data);
}

void expect_analysis_eq(const BlockAnalysis& scalar, const BlockAnalysis& batch,
                        const std::string& what) {
  EXPECT_EQ(scalar.bit_size, batch.bit_size) << what;
  EXPECT_EQ(scalar.is_compressed, batch.is_compressed) << what;
  EXPECT_EQ(scalar.lossy, batch.lossy) << what;
  EXPECT_EQ(scalar.lossless_bits, batch.lossless_bits) << what;
  EXPECT_EQ(scalar.truncated_symbols, batch.truncated_symbols) << what;
}

void expect_payload_eq(const CompressedBlock& scalar, const CompressedBlock& batch,
                       const std::string& what) {
  EXPECT_EQ(scalar.bit_size, batch.bit_size) << what;
  EXPECT_EQ(scalar.is_compressed, batch.is_compressed) << what;
  EXPECT_EQ(scalar.payload, batch.payload) << what;
}

// Restores runtime dispatch even when an ASSERT bails out of the test body.
struct ForceScalarGuard {
  ~ForceScalarGuard() { simd::force_scalar(false); }
};

// Codec options over one fixed training sample (static: the options only
// view it) with one shared E2MC model that the E2MC and TSLC-* factories
// reuse; Huffman trains on the sample itself.
CodecOptions trained_options() {
  static const std::vector<uint8_t> training = test::quantized_walk(7, 64);
  CodecOptions opts = test::test_options(training);
  opts.trained_e2mc = E2mcCompressor::train(training, opts.e2mc);
  return opts;
}

// Every registry codec with a Compressor form (RAW has none).
std::vector<std::shared_ptr<const Compressor>> all_compressors(const CodecOptions& opts) {
  std::vector<std::shared_ptr<const Compressor>> out;
  for (const CodecInfo* info : CodecRegistry::instance().entries())
    if (info->make) out.push_back(CodecRegistry::instance().create(info->name, opts));
  return out;
}

// Runs `comp`'s kernels over `views` in batches of each size in `splits`,
// with the SIMD sub-kernels forced off and then on, and compares every block
// against the reference encoder.
void check_codec(const Compressor& comp, std::span<const BlockView> views,
                 std::initializer_list<size_t> splits, const std::string& label) {
  ForceScalarGuard guard;
  const auto reference = ref::reference_for(comp);
  std::vector<BlockAnalysis> ref_a(views.size());
  std::vector<CompressedBlock> ref_c(views.size());
  for (size_t i = 0; i < views.size(); ++i) {
    ref_a[i] = reference.analyze(views[i]);
    ref_c[i] = reference.compress(views[i]);
  }

  for (const bool force_scalar : {true, false}) {
    simd::force_scalar(force_scalar);
    for (const size_t split : splits) {
      std::vector<BlockAnalysis> batch_a(views.size());
      std::vector<CompressedBlock> batch_c(views.size());
      for (size_t begin = 0; begin < views.size(); begin += split) {
        const auto part = views.subspan(begin, std::min(split, views.size() - begin));
        comp.analyze_batch(part, batch_a.data() + begin);
        comp.compress_batch(part, batch_c.data() + begin);
      }
      for (size_t i = 0; i < views.size(); ++i) {
        const std::string what = comp.name() + "/" + label + " block " + std::to_string(i) +
                                 " split " + std::to_string(split) +
                                 (force_scalar ? " force-scalar" : " dispatched");
        expect_analysis_eq(ref_a[i], batch_a[i], what);
        expect_payload_eq(ref_c[i], batch_c[i], what);
      }
    }
  }
}

TEST(BatchKernels, ByteIdenticalToScalarLoopForEveryRegistryCodec) {
  const std::map<std::string, std::vector<Block>> datasets = {
      {"random", random_blocks(48)},
      {"all-zero", zero_blocks(16)},
      {"denormal", denormal_blocks(48)},
      {"value-similar", to_blocks(test::quantized_walk(21, 48))},
      {"repeat-delta", repeat_delta_blocks(48)},
  };

  const auto comps = all_compressors(trained_options());
  for (const auto& comp : comps) {
    for (const auto& [label, blocks] : datasets) {
      // 1 = degenerate batches, 5 = shard boundaries that do not divide the
      // stream, all = one batch.
      const std::vector<BlockView> views = to_views(blocks);
      check_codec(*comp, views, {1, 5, blocks.size()}, label);

      // The owned-block overloads and the one-block calls run the same
      // kernels.
      const std::vector<BlockAnalysis> conv_a = comp->analyze_batch(blocks);
      const std::vector<CompressedBlock> conv_c = comp->compress_batch(blocks);
      ASSERT_EQ(conv_a.size(), blocks.size());
      ASSERT_EQ(conv_c.size(), blocks.size());
      for (size_t i = 0; i < blocks.size(); ++i) {
        const std::string what = comp->name() + "/" + label + " block " + std::to_string(i);
        expect_analysis_eq(comp->analyze(views[i]), conv_a[i], what);
        expect_payload_eq(comp->compress(views[i]), conv_c[i], what);
      }
    }
  }
  // BDI, FPC, C-PACK, E2MC, Huffman and the three TSLC variants.
  EXPECT_EQ(comps.size(), 8u);
}

// --- BlockCodec::process_batch ----------------------------------------------
// The memory-controller policies' batch kernel must match the per-block
// reference policy (ref::per_block_policy) field for field — including the
// bytes lossy SLC blocks are overwritten with — for every registry policy,
// every (safe, threshold) region annotation, and any batch split. This is
// the contract that lets ApproxMemory's commit kernel hand whole engine
// shards to process_batch.

/// Checks `codec` against its per-block reference; returns how many blocks
/// the batch kernel decided lossy.
size_t check_block_codec(const std::shared_ptr<const BlockCodec>& codec,
                         const std::vector<Block>& blocks, bool safe, size_t threshold,
                         const std::string& label) {
  const std::vector<uint8_t> original = test::corpus_bytes(blocks);
  std::vector<uint8_t> scalar_bytes = original;
  std::vector<BlockAnalysis> scalar(blocks.size());
  ref::per_block_policy(codec)->process_batch(scalar_bytes, safe, threshold, scalar.data());

  size_t lossy = 0;
  for (const size_t split : {size_t{1}, size_t{5}, blocks.size()}) {
    std::vector<uint8_t> bytes = original;
    std::vector<BlockAnalysis> batch(blocks.size());
    for (size_t begin = 0; begin < blocks.size(); begin += split) {
      const size_t len = std::min(split, blocks.size() - begin);
      codec->process_batch(std::span(bytes).subspan(begin * kBlockBytes, len * kBlockBytes), safe,
                           threshold, batch.data() + begin);
    }
    for (size_t i = 0; i < blocks.size(); ++i) {
      const std::string what = codec->name() + "/" + label + " safe=" + std::to_string(safe) +
                               " threshold=" + std::to_string(threshold) + " block " +
                               std::to_string(i) + " split " + std::to_string(split);
      expect_analysis_eq(scalar[i], batch[i], what);
      const auto block_bytes = [i](const std::vector<uint8_t>& v) {
        return std::vector<uint8_t>(v.begin() + static_cast<ptrdiff_t>(i * kBlockBytes),
                                    v.begin() + static_cast<ptrdiff_t>((i + 1) * kBlockBytes));
      };
      EXPECT_EQ(block_bytes(scalar_bytes), block_bytes(bytes)) << what;
      if (!batch[i].lossy) {
        EXPECT_EQ(block_bytes(original), block_bytes(bytes)) << what;
      }
      if (split == blocks.size()) lossy += batch[i].lossy ? 1 : 0;
    }
  }
  return lossy;
}

TEST(BatchKernels, ProcessBatchMatchesScalarForEveryRegistryPolicy) {
  const CodecOptions opts = trained_options();

  const std::map<std::string, std::vector<Block>> datasets = {
      {"random", random_blocks(24)},
      {"all-zero", zero_blocks(8)},
      {"value-similar", to_blocks(test::quantized_walk(21, 48))},
  };
  // Region annotations covering every policy branch: unsafe, safe at the
  // config threshold, tighter than config (the cached-codec path), looser
  // than config, and a zero threshold (never lossy even when safe).
  const std::vector<std::pair<bool, size_t>> annotations = {
      {false, 16}, {true, 16}, {true, 4}, {true, 64}, {true, 0}};

  size_t lossy_seen = 0;
  for (const CodecInfo* info : CodecRegistry::instance().entries()) {
    const auto codec = CodecRegistry::instance().create_block_codec(info->name, opts);
    for (const auto& [label, blocks] : datasets) {
      for (const auto& [safe, threshold] : annotations) {
        const size_t lossy = check_block_codec(codec, blocks, safe, threshold, label);
        if (!info->lossy || !safe || threshold == 0) {
          EXPECT_EQ(lossy, 0u) << info->name;
        }
        lossy_seen += lossy;
      }
    }
  }
  // The sweep must have exercised the lossy materialization path.
  EXPECT_GT(lossy_seen, 0u);
}

// --- SIMD dispatch -----------------------------------------------------------
// The vector kernels behind slc::simd are an implementation detail: pinning
// the scalar sub-kernels (simd::force_scalar, same switch the SLC_FORCE_SCALAR
// env var throws) must not change a single output byte of any codec.
// check_codec() holds both settings to the reference encoder, so they agree
// with each other too. On hosts without AVX2 both runs take the scalar path
// — CI also runs this whole binary once with SLC_FORCE_SCALAR=1.

TEST(BatchKernels, ForceScalarTogglePreservesEveryByte) {
  {
    ForceScalarGuard guard;
    simd::force_scalar(true);
    ASSERT_EQ(simd::active_level(), simd::Level::kScalar);
  }
  const std::map<std::string, std::vector<Block>> datasets = {
      {"random", random_blocks(33)},
      {"value-similar", to_blocks(test::quantized_walk(21, 48))},
      {"repeat-delta", repeat_delta_blocks(31)},
  };
  for (const auto& comp : all_compressors(trained_options()))
    for (const auto& [label, blocks] : datasets)
      check_codec(*comp, to_views(blocks), {blocks.size()}, label + " toggle");
}

// Batch splits around the kernels' tile widths — 1 (degenerate), 7/9 (around
// the E2MC 8-symbol gather), 15/17 (around BDI's 16-word tiles), 31/33
// (around FPC's 32-words-per-iteration pack) — on a stream whose length
// divides none of them. Any even-division assumption in the staging, the
// prefix-sum scatter, or a vector tail loop shows up here.
TEST(BatchKernels, OddBatchSplitsMatchScalar) {
  const std::vector<Block> blocks = repeat_delta_blocks(35);
  for (const auto& comp : all_compressors(trained_options()))
    check_codec(*comp, to_views(blocks), {1, 7, 9, 15, 17, 31, 33}, "odd split");
}

// Misaligned block pointers: the same stream viewed at byte offsets 0, 1 and
// 3 from the backing allocation, so every 32-byte vector load in the kernels
// is genuinely unaligned (block *sizes* stay kBlockBytes — only the pointers
// shift). Batch results must match the reference over the same shifted
// views, and shifting must not perturb a kernel into reading outside its
// block (ASan in CI would catch an over-read).
TEST(BatchKernels, MisalignedBlockPointersMatchScalar) {
  constexpr size_t kBlocks = 24;
  // Compressible content (repeated values + small deltas) so the vector
  // probe/classify/gather paths actually engage instead of bailing to raw.
  std::vector<uint8_t> pattern;
  pattern.reserve(kBlocks * kBlockBytes);
  {
    Rng rng(0xA11E5ull);
    uint64_t base = 0x0807060504030201ull;
    for (size_t i = 0; i < kBlocks * kBlockBytes / 8; ++i) {
      if (i % 16 == 0) base = rng.next();
      const uint64_t v = rng.chance(0.5) ? base : base + rng.next_below(120);
      for (int k = 0; k < 8; ++k) pattern.push_back(static_cast<uint8_t>(v >> (8 * k)));
    }
  }

  const auto comps = all_compressors(trained_options());
  for (const size_t offset : {size_t{0}, size_t{1}, size_t{3}}) {
    std::vector<uint8_t> arena(offset + pattern.size());
    std::memcpy(arena.data() + offset, pattern.data(), pattern.size());
    std::vector<BlockView> views;
    views.reserve(kBlocks);
    for (size_t b = 0; b < kBlocks; ++b)
      views.push_back(BlockView(
          std::span<const uint8_t>(arena.data() + offset + b * kBlockBytes, kBlockBytes)));
    for (const auto& comp : comps)
      check_codec(*comp, views, {kBlocks}, "offset " + std::to_string(offset));
  }
}

// Block sizes come from outside the program. A size a kernel cannot stage
// is rejected with std::invalid_argument rather than served by a second
// encoder.
TEST(BatchKernels, UnsupportedGeometryThrows) {
  const std::vector<uint8_t> training = test::quantized_walk(7, 64);
  const std::vector<uint8_t> bytes(1024, 0x5A);
  const auto view_of = [&](size_t n) {
    return BlockView(std::span<const uint8_t>(bytes.data(), n));
  };
  const auto expect_rejects = [](const Compressor& comp, BlockView block) {
    EXPECT_THROW(comp.analyze(block), std::invalid_argument) << comp.name();
    EXPECT_THROW(comp.compress(block), std::invalid_argument) << comp.name();
  };

  expect_rejects(BdiCompressor(), view_of(20));    // not a multiple of 8 B
  expect_rejects(FpcCompressor(), view_of(516));   // over 512 B
  expect_rejects(FpcCompressor(), view_of(18));    // not a multiple of 4 B
  expect_rejects(CpackCompressor(), view_of(1024));
  expect_rejects(*E2mcCompressor::train(training), view_of(130));  // 65 symbols, 4 ways
  EXPECT_THROW(CpackCompressor(128), std::invalid_argument);
  EXPECT_THROW(CpackCompressor(12), std::invalid_argument);
}

// Lossless schemes must still roundtrip from the batch-produced payloads.
TEST(BatchKernels, BatchPayloadsRoundtripLossless) {
  const std::vector<Block> blocks = random_blocks(32);
  const CodecOptions opts = trained_options();
  for (const std::string& name : CodecRegistry::instance().lossless_names()) {
    const auto comp = CodecRegistry::instance().create(name, opts);
    const std::vector<CompressedBlock> payloads = comp->compress_batch(blocks);
    for (size_t i = 0; i < blocks.size(); ++i)
      EXPECT_EQ(comp->decompress(payloads[i], kBlockBytes), blocks[i]) << name << " block " << i;
  }
}

TEST(BatchKernels, BatchPayloadsDecompressForEveryScheme) {
  // Closes the decompress gap over the batch paths: every scheme's
  // compress_batch payloads must decode to exactly what the reference
  // encoder's payloads decode to — for lossless schemes that is the input
  // itself; for the lossy TSLC variants the approximation is part of the
  // contract, and kernel/reference drift in the decoded bytes is a bug.
  const std::vector<std::vector<Block>> corpora = {random_blocks(24), zero_blocks(8),
                                                   repeat_delta_blocks(16), denormal_blocks(8)};
  const auto comps = all_compressors(trained_options());
  for (const auto& blocks : corpora) {
    for (const auto& comp : comps) {
      const bool lossy = CodecRegistry::instance().at(comp->name()).lossy;
      const auto reference = ref::reference_for(*comp);
      const std::vector<CompressedBlock> payloads = comp->compress_batch(blocks);
      for (size_t i = 0; i < blocks.size(); ++i) {
        const Block batch_decoded = comp->decompress(payloads[i], kBlockBytes);
        const Block reference_decoded =
            comp->decompress(reference.compress(blocks[i].view()), kBlockBytes);
        EXPECT_EQ(batch_decoded, reference_decoded) << comp->name() << " block " << i;
        if (!lossy) {
          EXPECT_EQ(batch_decoded, blocks[i]) << comp->name() << " block " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace slc
