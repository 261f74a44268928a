// BlockCodec: the memory-controller compression policy applied to every
// block that crosses the DRAM pin boundary.
//
// The interface and the scheme-agnostic policies live here in the compress
// layer; the paper's selective lossy policy (SlcBlockCodec) lives in
// core/slc_block_codec.h. Policies are normally constructed by name through
// CodecRegistry::create_block_codec().
//   RawBlockCodec      — no compression (every block costs all bursts)
//   LosslessBlockCodec — any lossless Compressor (E2MC baseline, BDI, ...)
// process_batch() reports each block's outcome (its burst count, for timing,
// follows from the stored size) and leaves the block's bytes as the GPU will
// later observe them (functional); only lossy codecs mutate.
#pragma once

#include <memory>
#include <span>

#include "compress/compressor.h"

namespace slc {

class BlockCodec {
 public:
  virtual ~BlockCodec() = default;

  /// Runs the policy over the consecutive kBlockBytes blocks of `data`:
  /// fills out[i] with block i's outcome and overwrites each block the
  /// policy approximates (out[i].lossy) with its decoded contents, in place;
  /// every other block's bytes stay untouched.
  /// `safe_to_approx` and `threshold_bytes` come from the region's
  /// extended-cudaMalloc annotation and apply to the whole span — the
  /// region-commit shape, where every block shares the region's annotation;
  /// codecs without a lossy mode ignore them. Results must not depend on how
  /// a span is split (pinned against the per-block reference policy by
  /// tests/test_batch_kernels.cpp), and scratch must stay in the call frame:
  /// a BlockCodec stays immutable after construction, so concurrent
  /// CodecEngine shards may run it on disjoint ranges.
  virtual void process_batch(std::span<uint8_t> data, bool safe_to_approx,
                             size_t threshold_bytes, BlockAnalysis* out) const = 0;

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
  void process_batch(std::span<uint8_t> data, bool safe_to_approx, size_t threshold_bytes,
                     BlockAnalysis* out) const override;
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
  void process_batch(std::span<uint8_t> data, bool safe_to_approx, size_t threshold_bytes,
                     BlockAnalysis* out) const override;
  size_t mag_bytes() const override { return mag_; }
  std::string name() const override { return comp_->name(); }
  const Compressor& compressor() const { return *comp_; }

 private:
  std::shared_ptr<const Compressor> comp_;
  size_t mag_;
};

}  // namespace slc
