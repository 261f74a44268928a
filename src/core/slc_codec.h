// SLC codec: MAG-aware selective lossy compression on top of E2MC
// (paper Sec. III). This is the paper's primary contribution.
//
// Mode decision (Fig. 4): compute the lossless compressed size (sum of code
// lengths + header), derive the bit budget (closest multiple of MAG <= comp
// size, floored at one MAG) and the overshoot (`extra_bits`). If the
// overshoot is zero the block is stored lossless; if it is at most the
// user threshold, the TSLC tree picks a sub-block of symbols to truncate so
// the block fits the budget; otherwise the block stays lossless at the next
// burst boundary. Blocks whose lossless size needs as many bursts as the raw
// block are stored uncompressed.
//
// Variants (Sec. V): TSLC-SIMP truncates and decodes zeros; TSLC-PRED decodes
// the value of the first non-truncated symbol of the block (value-similarity
// prediction, Sec. III-E); TSLC-OPT additionally enables the extra tree nodes
// (Sec. III-F).
#pragma once

#include <memory>
#include <optional>

#include "compress/e2mc.h"
#include "core/slc_header.h"
#include "core/tree_selector.h"

namespace slc {

class FingerprintCache;

enum class SlcVariant : uint8_t { kSimp, kPred, kOpt };

const char* to_string(SlcVariant v);

struct SlcConfig {
  size_t mag_bytes = kDefaultMagBytes;  ///< memory access granularity
  size_t threshold_bytes = 16;          ///< lossy threshold (paper default 16 B)
  SlcVariant variant = SlcVariant::kOpt;
  /// Optional content-addressed memo for the Fig. 4 decision
  /// (core/fingerprint_cache.h). Null (the default) keeps every path
  /// uncached; when set, analyze_batch() and decide_batch_cached() serve
  /// repeat blocks without the E2MC length probe. The
  /// codec derives its cache key from (E2MC model id, MAG, threshold,
  /// variant), so one cache may safely back any number of codecs — entries
  /// never cross a configuration or a trained model.
  std::shared_ptr<FingerprintCache> cache{};
};

/// The SLC codec, behind the uniform Compressor interface: the CodecRegistry
/// builds TSLC-* under this type, and the CodecEngine, the CodecServer and
/// every scheme-sweeping bench drive it like the lossless schemes. The
/// payload is self-describing (the Fig. 6 header carries mode/ss/len), so
/// decompress() needs nothing beyond the CompressedBlock. The variants are
/// lossy: decompress(compress(b)) may differ from b for blocks the Fig. 4
/// decision truncates (BlockAnalysis::lossy/truncated_symbols say which).
class SlcCodec : public Compressor {
 public:
  SlcCodec(std::shared_ptr<const E2mcCompressor> lossless, SlcConfig cfg);

  std::string name() const override { return to_string(cfg_.variant); }

  /// Decompresses (exact for lossless blocks; approximated symbols filled
  /// per the configured variant for lossy blocks).
  Block decompress(const CompressedBlock& cb, size_t block_bytes) const override;

  using Compressor::analyze_batch;
  using Compressor::compress_batch;
  /// Size-only: the full Fig. 4 decision (budget, threshold, tree selection)
  /// without building the bit stream. Exactly the sizes compress_batch()
  /// reports. Served from the fingerprint memo when cfg.cache is set.
  void analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const override;
  /// One decide_batch() probe for the whole span, then payload emission
  /// through the prefix-sum scatter (each block's exact final size is known
  /// from its Decision, so every payload is written at an independent
  /// offset of one reused arena). out[i] does not depend on how the span is
  /// split.
  void compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const override;

  // --- batched mode decision -------------------------------------------------
  // The decision layer's batch kernel, feeding SlcBlockCodec::process_batch
  // and the Compressor kernels above: one staged E2MC length probe for the
  // whole span, then the Fig. 4 decide() pass per block over the staged
  // lengths. Results are the same for any split of the span; all scratch
  // lives in the caller's frame, so concurrent engine shards need no locks.

  /// Outcome of the Fig. 4 mode decision for one block: the block's outcome
  /// record plus the SLC-only quantities behind it.
  struct Decision {
    BlockAnalysis analysis;
    size_t extra_bits = 0;      ///< overshoot above the bit budget
    size_t truncated_bits = 0;  ///< code bits removed (>= extra_bits when lossy)
    size_t skip_start = 0;      ///< truncated window (meaningful only when lossy)
    size_t skip_count = 0;
  };

  /// Staged per-symbol code lengths for a span of blocks (block i's lengths
  /// at lens[offsets[i] .. offsets[i+1])). Reuse across calls to amortize
  /// the allocation; compress_batch() emits the payloads from it.
  struct LengthScratch {
    std::vector<uint16_t> lens;
    std::vector<size_t> offsets;

    std::span<const uint16_t> block_lens(size_t i) const {
      return std::span<const uint16_t>(lens).subspan(offsets[i], offsets[i + 1] - offsets[i]);
    }
  };

  /// Batched decision: fills out[0..blocks.size()) with each block's
  /// Decision, probing code lengths once for the whole span into `scratch`.
  /// Never consults the fingerprint memo — the staged lengths it produces
  /// feed compress_batch(), which a cache hit (decision only, no lens)
  /// cannot serve.
  void decide_batch(std::span<const BlockView> blocks, LengthScratch& scratch,
                    Decision* out) const;

  /// Memoized decide_batch(). When cfg.cache is set it first consults the
  /// content-addressed memo: a hit returns the stored Decision — exactly
  /// what the miss path computes for that content — without the E2MC
  /// length probe, and so does an in-batch duplicate; the remaining
  /// distinct misses run through one decide_batch() over `scratch` and are
  /// inserted. out[i] is identical to decide_batch()'s
  /// out[i] for every block (modulo undetected 64-bit fingerprint
  /// collisions, which verify-on-hit eliminates) except for
  /// out[i].analysis.cache, block i's memo outcome — the single thing that
  /// is NOT thread-count invariant about a cached run. Without a cache this
  /// is decide_batch().
  void decide_batch_cached(std::span<const BlockView> blocks, LengthScratch& scratch,
                           Decision* out) const;

  /// The (model, MAG, threshold, variant) key this codec's entries live
  /// under; distinct for every distinct decision function.
  uint64_t cache_key() const { return cache_key_; }
  /// The configured memo (null when uncached).
  const std::shared_ptr<FingerprintCache>& cache() const { return cfg_.cache; }

  /// Overwrites `block` (the bytes decision `d` was taken on) with what
  /// reads will observe after a store+load round trip, without
  /// materializing the payload: every non-truncated symbol round-trips
  /// exactly through the entropy code, so only the selected window is
  /// re-filled per the variant (zeros for TSLC-SIMP, parity-matched
  /// prediction otherwise — the same fill routine decompress() runs). A
  /// no-op unless d.analysis.lossy. Byte-identical to decompressing the
  /// payload compress_batch() emits for `d`; the commit path's way to
  /// mutate lossy blocks at decision cost.
  void approximate(std::span<uint8_t> block, const Decision& d) const;

  const SlcConfig& config() const { return cfg_; }
  const E2mcCompressor& lossless() const { return *lossless_; }
  const TreeSlcSelector& selector() const { return selector_; }

  /// SLC header size in bits for this geometry (Fig. 6: 32 bits for the
  /// default 128 B / 4-way configuration).
  size_t header_bits(size_t block_bytes) const;

  /// Compression latency in memory-controller cycles: E2MC's 46 plus 12 to
  /// stream the code lengths and 2 to add/select (paper Sec. IV-A: 60).
  static constexpr unsigned kCompressLatency = 60;
  /// Decompression latency equals E2MC's (Sec. IV-A).
  static constexpr unsigned kDecompressLatency = E2mcCompressor::kDecompressLatency;

 private:
  std::shared_ptr<const E2mcCompressor> lossless_;
  SlcConfig cfg_;
  TreeSlcSelector selector_;
  uint64_t cache_key_ = 0;

  /// The Fig. 4 mode decision for one block's staged code lengths.
  Decision decide(std::span<const uint16_t> lens, size_t block_bytes) const;

  /// Re-fills the truncated window of `out` per the configured variant. All
  /// symbols outside [skip_start, skip_start + skip_count) must already hold
  /// their exact values — the one fill routine decompress() and
  /// approximate() share, so the payload and payload-free decodes cannot
  /// drift apart.
  void fill_approximated(std::span<uint8_t> out, size_t skip_start, size_t skip_count) const;

  /// Emits the block with symbols [skip_start, skip_start+skip_count)
  /// removed into `w` (which must be empty); returns the total bits written.
  size_t encode_into(BlockView block, const SlcHeader& hdr, std::span<const uint16_t> lens,
                     size_t skip_start, size_t skip_count, BitWriter& w) const;
};

}  // namespace slc
