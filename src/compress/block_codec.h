// BlockCodec: the memory-controller compression policy applied to every
// block that crosses the DRAM pin boundary.
//
// The interface and the scheme-agnostic policies live here in the compress
// layer; the paper's selective lossy policy (SlcBlockCodec) lives in
// core/slc_block_codec.h. Policies are normally constructed by name through
// CodecRegistry::create_block_codec().
//   RawBlockCodec      — no compression (every block costs all bursts)
//   LosslessBlockCodec — any lossless Compressor (E2MC baseline, BDI, ...)
// process_batch() returns each block's burst count (timing) and its contents
// as the GPU will later observe them (functional); only lossy codecs mutate.
#pragma once

#include <memory>
#include <span>

#include "compress/compressor.h"

namespace slc {

/// Result of pushing one block through the memory-controller codec.
struct BlockCodecResult {
  size_t bursts = 0;          ///< MAG bursts this block costs in DRAM
  size_t lossless_bits = 0;   ///< compressed size before any truncation
  size_t final_bits = 0;      ///< stored size
  bool lossy = false;         ///< true if symbols were approximated
  bool stored_uncompressed = false;
  size_t truncated_symbols = 0;
  Block decoded;              ///< block as later reads will observe it

  // Fingerprint-memo outcome (see BlockAnalysis): hit-rate accounting only;
  // every decision field above is cache-invariant.
  bool cache_probed = false;
  bool cache_hit = false;
  bool cache_evicted = false;
  bool cache_collision = false;
};

class BlockCodec {
 public:
  virtual ~BlockCodec() = default;

  /// Compresses + decompresses a span of blocks: fills out[0..blocks.size())
  /// with each block's result (out[i] belongs to blocks[i]).
  /// `safe_to_approx` and `threshold_bytes` come from the region's
  /// extended-cudaMalloc annotation and apply to the whole span — the
  /// region-commit shape, where every block shares the region's annotation;
  /// codecs without a lossy mode ignore them. Results must not depend on how
  /// a span is split (pinned against the per-block reference policy by
  /// tests/test_batch_kernels.cpp), and scratch must stay in the call frame:
  /// a BlockCodec stays immutable after construction, so concurrent
  /// CodecEngine shards may run it on disjoint ranges.
  virtual void process_batch(std::span<const BlockView> blocks, bool safe_to_approx,
                             size_t threshold_bytes, BlockCodecResult* out) const = 0;

  virtual size_t mag_bytes() const = 0;
  virtual std::string name() const = 0;

  /// Max bursts for an uncompressed block.
  size_t max_bursts(size_t block_bytes = kBlockBytes) const {
    return block_bytes / mag_bytes();
  }
};

/// Uncompressed baseline: every block costs max bursts, contents unchanged.
class RawBlockCodec final : public BlockCodec {
 public:
  explicit RawBlockCodec(size_t mag_bytes = kDefaultMagBytes) : mag_(mag_bytes) {}
  void process_batch(std::span<const BlockView> blocks, bool safe_to_approx,
                     size_t threshold_bytes, BlockCodecResult* out) const override;
  size_t mag_bytes() const override { return mag_; }
  std::string name() const override { return "RAW"; }

 private:
  size_t mag_;
};

/// Lossless compression through any Compressor (contents never change).
class LosslessBlockCodec final : public BlockCodec {
 public:
  LosslessBlockCodec(std::shared_ptr<const Compressor> comp,
                     size_t mag_bytes = kDefaultMagBytes)
      : comp_(std::move(comp)), mag_(mag_bytes) {}
  /// Delegates the size pass to the compressor's analyze_batch kernel, so
  /// region commits run at batch speed.
  void process_batch(std::span<const BlockView> blocks, bool safe_to_approx,
                     size_t threshold_bytes, BlockCodecResult* out) const override;
  size_t mag_bytes() const override { return mag_; }
  std::string name() const override { return comp_->name(); }
  const Compressor& compressor() const { return *comp_; }

 private:
  std::shared_ptr<const Compressor> comp_;
  size_t mag_;
};

}  // namespace slc
