#include "compress/block_codec.h"

#include "compress/codec_registry.h"

namespace slc {

namespace {

/// The one fixed-cost RAW result.
BlockCodecResult raw_result(BlockView block, size_t mag_bytes) {
  BlockCodecResult r;
  r.bursts = block.size() / mag_bytes;
  r.lossless_bits = block.size() * 8;
  r.final_bits = block.size() * 8;
  r.stored_uncompressed = true;
  r.decoded = Block(block.bytes());
  return r;
}

}  // namespace

void RawBlockCodec::process_batch(std::span<const BlockView> blocks, bool, size_t,
                                  BlockCodecResult* out) const {
  // No per-block decision to make: fill the fixed-cost results.
  for (size_t i = 0; i < blocks.size(); ++i) out[i] = raw_result(blocks[i], mag_bytes());
}

namespace {

/// Maps one lossless size analysis onto the policy result.
BlockCodecResult lossless_result(const BlockAnalysis& a, BlockView block, size_t mag) {
  BlockCodecResult r;
  r.lossless_bits = a.bit_size;
  r.final_bits = a.bit_size;
  r.stored_uncompressed = !a.is_compressed || a.bit_size >= block.size() * 8;
  r.bursts = bursts_for_bits(a.bit_size, mag, block.size());
  r.decoded = Block(block.bytes());
  return r;
}

}  // namespace

void LosslessBlockCodec::process_batch(std::span<const BlockView> blocks, bool, size_t,
                                       BlockCodecResult* out) const {
  // One batched size probe for the whole span, then the per-block mapping.
  // Size-only: no payload is needed for a lossless codec (the roundtrip
  // identity is enforced separately by the unit tests).
  std::vector<BlockAnalysis> analyses(blocks.size());
  comp_->analyze_batch(blocks, analyses.data());
  for (size_t i = 0; i < blocks.size(); ++i)
    out[i] = lossless_result(analyses[i], blocks[i], mag_);
}

namespace {
const CodecRegistrar raw_registrar({
    .name = "RAW",
    .scheme = "uncompressed baseline",
    .paper = "baseline configuration (Sec. IV)",
    .order = -1,
    .lossy = false,
    .needs_training = false,
    .compress_latency = 0,
    .decompress_latency = 0,
    .make = nullptr,  // RAW has no Compressor form
    .make_block_codec =
        [](const CodecOptions& opts) -> std::shared_ptr<const BlockCodec> {
      return std::make_shared<RawBlockCodec>(opts.mag_bytes);
    },
});
}  // namespace

}  // namespace slc
