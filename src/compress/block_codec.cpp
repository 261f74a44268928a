#include "compress/block_codec.h"

#include "compress/codec_registry.h"

namespace slc {

void RawBlockCodec::process_batch(std::span<uint8_t> data, bool, size_t,
                                  BlockAnalysis* out) const {
  // No per-block decision to make: every block is stored as is.
  const size_t raw_bits = kBlockBytes * 8;
  for (size_t i = 0; i < data.size() / kBlockBytes; ++i)
    out[i] = BlockAnalysis{.bit_size = raw_bits, .lossless_bits = raw_bits};
}

void LosslessBlockCodec::process_batch(std::span<uint8_t> data, bool, size_t,
                                       BlockAnalysis* out) const {
  // One batched size probe for the whole span; the contents never change.
  // Size-only: no payload is needed for a lossless codec (the roundtrip
  // identity is enforced separately by the unit tests).
  comp_->analyze_batch(to_views(data), out);
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
