// FingerprintCache: content-addressed memoization of the Fig. 4 mode
// decision. Real traffic repeats — zero pages, re-committed regions,
// duplicated tensors — yet the decision path pays the full E2MC length probe
// per block. The cache keys each block on a fast 64-bit content fingerprint
// (xxHash64-style mixer over the 128 B block) plus the deciding codec's key
// (trained model id, MAG, threshold, variant), so a repeat block's Decision
// is served without touching the code-length table.
//
// Structure: a bounded LRU split into power-of-two shards, each with its own
// mutex, list and hash map — concurrent engine workers only contend when
// their blocks land in the same shard. Capacity is enforced per shard
// (capacity / shards entries each), so eviction needs no cross-shard
// coordination.
//
// Correctness contract: a hit returns exactly the Decision the miss path
// computes for that content, so cached and uncached runs produce identical
// decisions and byte-identical outputs. The only hole is a 64-bit
// fingerprint collision between two live blocks under the same codec key —
// astronomically unlikely, and `verify_on_hit` closes it entirely by
// storing each entry's content and comparing all 128 bytes on every hit
// (a mismatch counts as a collision + miss, never a wrong decision).
// Hit/miss/eviction *counters* are not thread-count invariant (which block
// of a concurrent pair misses first is a race); the decisions are.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/thread_safety.h"
#include "core/slc_codec.h"

namespace slc {

/// 64-bit content fingerprint (xxHash64-style: four parallel multiply/rotate
/// lanes over 32 B stripes, an avalanche finalizer over the tail). Equal
/// bytes => equal fingerprint; the converse holds modulo 64-bit collisions.
uint64_t block_fingerprint(std::span<const uint8_t> bytes);

class FingerprintCache {
 public:
  struct Config {
    size_t capacity = size_t{1} << 15;  ///< total entries across all shards
    size_t shards = 16;                 ///< rounded up to a power of two
    /// Paranoia mode: store each entry's content and require byte equality
    /// on every hit. Costs one 128 B copy per insert and one compare per
    /// hit; turns any fingerprint collision into a detected miss.
    bool verify_on_hit = false;
  };

  enum class Lookup {
    kMiss,       ///< no entry for (key, fingerprint)
    kHit,        ///< decision served (content verified when configured)
    kCollision,  ///< entry found but verify-on-hit content differs
  };

  FingerprintCache() : FingerprintCache(Config{}) {}
  explicit FingerprintCache(Config cfg);

  /// Probes (codec_key, fp). On kHit fills `out` and refreshes the entry's
  /// LRU position. `block` is only read in verify-on-hit mode.
  Lookup lookup(uint64_t codec_key, uint64_t fp, std::span<const uint8_t> block,
                SlcCodec::Decision& out);

  /// Stores (or refreshes) the decision for (codec_key, fp). Returns true
  /// when a least-recently-used entry was displaced to make room. `block`
  /// is only copied in verify-on-hit mode.
  bool insert(uint64_t codec_key, uint64_t fp, std::span<const uint8_t> block,
              const SlcCodec::Decision& d);

  size_t size() const;  ///< current entries across all shards
  size_t capacity() const { return per_shard_ * num_shards_; }
  size_t num_shards() const { return num_shards_; }
  bool verify_on_hit() const { return cfg_.verify_on_hit; }

  /// Which shard (codec_key, fp) maps to — exposed so the adversarial tests
  /// can construct forced same-shard streams.
  size_t shard_index(uint64_t codec_key, uint64_t fp) const;

  /// Lifetime hit/miss/eviction/collision totals across all shards.
  CacheCounters counters() const;

  /// Drops every entry (counters keep their totals).
  void clear();

 private:
  struct Key {
    uint64_t codec_key = 0;
    uint64_t fp = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Entry {
    Key key;
    SlcCodec::Decision decision;
    std::vector<uint8_t> content;  ///< populated only in verify-on-hit mode
  };
  /// One shard: its own lock, recency list (front = most recent) and index.
  /// Shards are neither movable nor copyable (Mutex), hence the
  /// unique_ptr<Shard[]> storage. Shard mutexes are leaf locks: lookup and
  /// insert touch exactly one shard and acquire nothing under it.
  struct Shard {
    mutable Mutex m;
    std::list<Entry> lru SLC_GUARDED_BY(m);
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index SLC_GUARDED_BY(m);
    CacheCounters counters SLC_GUARDED_BY(m);
  };

  Shard& shard_for(uint64_t codec_key, uint64_t fp) const;

  Config cfg_;
  size_t num_shards_ = 1;  ///< power of two
  size_t per_shard_ = 1;   ///< max entries per shard
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace slc
