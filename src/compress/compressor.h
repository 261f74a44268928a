// Common interface for block compressors (BDI, FPC, C-PACK, E2MC, Huffman
// and the SLC codecs), plus the per-block outcome record and its counters,
// which carry the raw/effective compression-ratio bookkeeping from the paper.
//
// All schemes operate on one 128 B memory block at a time and report an exact
// compressed size in bits. The *raw* ratio divides original bits by these
// exact bits; the *effective* ratio first rounds the compressed size up to a
// multiple of the memory access granularity (MAG), because DRAM can only
// transfer whole bursts (Section I of the paper).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/block.h"
#include "common/stats.h"

namespace slc {

/// One compressed memory block. `payload` holds the bit-packed stream
/// (only meaningful when `is_compressed`); `bit_size` is the exact size the
/// scheme reports, including any per-block header the scheme requires.
struct CompressedBlock {
  std::vector<uint8_t> payload;
  size_t bit_size = 0;
  bool is_compressed = false;

  size_t byte_size() const { return (bit_size + 7) / 8; }
};

/// The outcome of compressing one block: everything the ratio studies, the
/// commit path and the timing simulator need, without a payload. It is the
/// one per-block record from the codec kernels (Compressor::analyze_batch,
/// BlockCodec::process_batch) to the counters (CommitStats::add). For
/// lossless schemes `lossless_bits == bit_size` and the lossy fields stay
/// zero; SLC fills all fields from the Fig. 4 mode decision. The burst count
/// is not stored: it is bit_size rounded up to whole MAG bursts, derived at
/// the fold.
struct BlockAnalysis {
  size_t bit_size = 0;          ///< stored size in bits (raw size if uncompressed)
  bool is_compressed = false;
  bool lossy = false;           ///< symbols were approximated (SLC only)
  size_t lossless_bits = 0;     ///< size before any truncation
  size_t truncated_symbols = 0; ///< approximated symbols (SLC only)
  /// Fingerprint-memo outcome (TSLC-* codecs with a cache only). The fields
  /// above are identical with or without it.
  CacheOutcome cache{};
};

/// Counters over a stream of block outcomes: an ApproxMemory commit, a
/// CodecEngine analysis sweep, a CodecServer stream. All integers, so
/// merging is exact in any order.
struct CommitStats {
  uint64_t blocks = 0;
  uint64_t lossy_blocks = 0;
  uint64_t uncompressed_blocks = 0;
  uint64_t bursts = 0;
  uint64_t truncated_symbols = 0;
  uint64_t original_bits = 0;
  uint64_t lossless_bits = 0;
  uint64_t final_bits = 0;
  /// Fingerprint-memo outcomes over the blocks (all zero for codecs without
  /// a cache). Unlike every field above, these counters are NOT
  /// thread-count invariant when a cache is shared across workers —
  /// compare cached runs with same_decisions(), not operator==.
  CacheCounters cache;

  /// Folds one block's outcome in: the one per-block fold. The block costs
  /// bursts_for_bits(a.bit_size, mag_bytes, block_bytes) MAG bursts, which
  /// is returned for callers that store it (the commit's burst table).
  size_t add(const BlockAnalysis& a, size_t block_bytes, size_t mag_bytes);

  /// Folds another accumulator into this one.
  void merge(const CommitStats& o);

  double avg_bursts() const {
    return blocks ? static_cast<double>(bursts) / static_cast<double>(blocks) : 0.0;
  }
  double lossy_fraction() const {
    return blocks ? static_cast<double>(lossy_blocks) / static_cast<double>(blocks) : 0.0;
  }
  /// Original over stored bits (the paper's raw compression ratio).
  double raw_ratio() const {
    return final_bits ? static_cast<double>(original_bits) / static_cast<double>(final_bits)
                      : 0.0;
  }
  /// Original over fetched bits, whole `mag_bytes` bursts per block (the
  /// paper's effective compression ratio).
  double effective_ratio(size_t mag_bytes) const {
    return bursts ? static_cast<double>(original_bits) /
                        static_cast<double>(bursts * mag_bytes * 8)
                  : 0.0;
  }

  /// All-field equality — the determinism checks compare whole accumulators
  /// so a new counter can never silently escape them. For runs with a
  /// fingerprint cache enabled this is stricter than the determinism
  /// contract (hit/miss tallies race); those compare same_decisions().
  bool operator==(const CommitStats&) const = default;

  /// Every decision-derived counter equal, cache tallies ignored — the
  /// equality a cached run is guaranteed to share with an uncached (or
  /// differently-threaded) run of the same stream.
  bool same_decisions(const CommitStats& o) const {
    CommitStats a = *this, b = o;
    a.cache = b.cache = {};
    return a == b;
  }
};

/// Abstract block compressor.
///
/// Each scheme implements one encoder: the batch kernels analyze_batch and
/// compress_batch. The one-block calls compress()/analyze() run those
/// kernels on a batch of one. The per-block reference encoders the kernels
/// are tested against live in tests/reference_codecs.{h,cpp}, outside the
/// library.
class Compressor {
 public:
  virtual ~Compressor() = default;

  /// Short identifier used in bench tables ("BDI", "FPC", ...).
  virtual std::string name() const = 0;

  /// Exact inverse of compress(). `block_bytes` is the original block size.
  virtual Block decompress(const CompressedBlock& cb, size_t block_bytes) const = 0;

  // --- batch kernels ---------------------------------------------------------
  // The CodecEngine's shards and the CodecServer's coalesced batches call the
  // view-based kernels below; results go into index-aligned caller slots
  // (`out[i]` belongs to `blocks[i]`). Kernels hoist per-block setup out of
  // the loop, reuse scratch across the batch, and must give the same result
  // for any sub-range split (pinned against the reference encoders by
  // tests/test_batch_kernels.cpp). They keep all scratch in the call frame:
  // a Compressor stays immutable after construction, so concurrent shards of
  // one batch may run the kernel on disjoint ranges. A block size the scheme
  // cannot encode throws std::invalid_argument.

  /// Size-only kernel: exactly the sizes compress_batch() reports, without
  /// building the bit streams.
  virtual void analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const = 0;
  /// Full-payload kernel. A block the scheme cannot shrink below its raw
  /// size comes back uncompressed (is_compressed = false, bit_size = block
  /// bits, payload = the raw bytes).
  virtual void compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const = 0;

  /// One block through compress_batch().
  CompressedBlock compress(BlockView block) const;
  /// One block through analyze_batch().
  BlockAnalysis analyze(BlockView block) const;
  /// analyze(block).bit_size — the ratio studies' common call.
  size_t compressed_bits(BlockView block) const { return analyze(block).bit_size; }

  /// Owned-block conveniences (bench and test entry points): materialize the
  /// views and forward to the kernels above.
  std::vector<CompressedBlock> compress_batch(std::span<const Block> blocks) const;
  std::vector<BlockAnalysis> analyze_batch(std::span<const Block> blocks) const;
};

/// The stored bytes of an uncompressed block — the decoders' raw branch.
/// Payloads reach the decoders from outside the program, so a payload
/// shorter than `block_bytes` throws std::invalid_argument.
Block raw_block(std::span<const uint8_t> payload, size_t block_bytes);

}  // namespace slc
