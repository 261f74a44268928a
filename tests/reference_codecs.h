// Per-block reference encoders and policies: the differential oracle for
// the library's batch kernels, which are its only encoders and its only
// memory-controller policy path.
//
// These are the straightforward one-block encoders the kernels were derived
// from: a bit-at-a-time writer, a deque-backed C-PACK dictionary,
// byte-assembled word loads and separate size-only walks. They share only
// code tables and layout helpers with the library. tests/test_batch_kernels
// and the per-scheme suites compare against them; bench/codec_throughput
// times them as its "scalar" rows, and bench/engine_throughput times the
// per-block policy as its region-commit "scalar" row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "compress/bdi.h"
#include "compress/block_codec.h"
#include "compress/cpack.h"
#include "compress/huffman.h"
#include "core/slc_codec.h"

namespace slc::ref {

/// Append-only MSB-first bit writer into a growing buffer, one byte-masking
/// step per output byte.
class BitWriter {
 public:
  /// Appends the low `nbits` bits of `value`, most-significant bit first.
  /// `nbits` must be in [0, 64].
  void put(uint64_t value, unsigned nbits);
  void put_bit(bool bit) { put(bit ? 1u : 0u, 1); }

  size_t bit_size() const { return bit_size_; }
  size_t byte_size() const { return (bit_size_ + 7) / 8; }

  /// The packed stream, final partial byte zero-padded.
  std::vector<uint8_t> bytes() const;

 private:
  std::vector<uint8_t> buf_;
  size_t bit_size_ = 0;
};

// Per-scheme encoders, bound to the trained tables and configuration of
// the library compressor they mirror.
CompressedBlock bdi_compress(BlockView block);
BlockAnalysis bdi_analyze(BlockView block);
/// BDI's smallest valid encoding, from byte-assembled word loads.
BdiEncoding bdi_best_encoding(BlockView block);
CompressedBlock fpc_compress(BlockView block);
BlockAnalysis fpc_analyze(BlockView block);
CompressedBlock cpack_compress(const CpackCompressor& comp, BlockView block);
BlockAnalysis cpack_analyze(const CpackCompressor& comp, BlockView block);
CompressedBlock e2mc_compress(const E2mcCompressor& comp, BlockView block);
BlockAnalysis e2mc_analyze(const E2mcCompressor& comp, BlockView block);
CompressedBlock huffman_compress(const HuffmanCompressor& comp, BlockView block);
BlockAnalysis huffman_analyze(const HuffmanCompressor& comp, BlockView block);
/// SLC's one-block Fig. 4 decision: SlcCodec::decide_batch_cached over a
/// span of one, served from the codec's fingerprint memo when it has one.
SlcCodec::Decision slc_decide(const SlcCodec& codec, BlockView block);
/// SLC: the slc_decide() decision, emitted by the reference writer with its
/// own header and way layout.
CompressedBlock slc_compress(const SlcCodec& codec, BlockView block);
BlockAnalysis slc_analyze(const SlcCodec& codec, BlockView block);

/// One scheme's per-block encoder pair.
struct Codec {
  std::function<CompressedBlock(BlockView)> compress;
  std::function<BlockAnalysis(BlockView)> analyze;
};

/// The reference encoders for a library compressor (BDI, FPC, C-PACK, E2MC,
/// Huffman or a TSLC variant). `comp` must outlive the result. Throws
/// std::invalid_argument for any other Compressor type.
Codec reference_for(const Compressor& comp);

/// The per-block reference for a library policy (RawBlockCodec,
/// LosslessBlockCodec or SlcBlockCodec): a BlockCodec whose process_batch
/// decides one block at a time. TSLC-* builds its own SlcCodec for the
/// effective threshold (safe ? min(region, config) : 0) and takes each
/// block's slc_decide() decision and approximate(); the lossless schemes
/// map reference_for(...).analyze; RAW returns the fixed raw result. Keeps
/// `policy` alive; throws std::invalid_argument for any other policy type.
std::shared_ptr<const BlockCodec> per_block_policy(std::shared_ptr<const BlockCodec> policy);

}  // namespace slc::ref
