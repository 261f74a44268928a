#include "core/fingerprint_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace slc {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

uint64_t load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

uint32_t load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t round64(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  acc = std::rotl(acc, 31);
  return acc * kPrime1;
}

uint64_t merge_round(uint64_t acc, uint64_t val) {
  acc ^= round64(0, val);
  return acc * kPrime1 + kPrime4;
}

uint64_t avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace

uint64_t block_fingerprint(std::span<const uint8_t> bytes) {
  const uint8_t* p = bytes.data();
  const uint8_t* const end = p + bytes.size();
  uint64_t h;

  if (bytes.size() >= 32) {
    // Four independent multiply/rotate lanes over 32 B stripes — for the
    // 128 B block this is four full rounds per lane with no cross-lane
    // dependency, so the multiplies pipeline.
    uint64_t v1 = kPrime1 + kPrime2;
    uint64_t v2 = kPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kPrime1;
    do {
      v1 = round64(v1, load64(p));
      v2 = round64(v2, load64(p + 8));
      v3 = round64(v3, load64(p + 16));
      v4 = round64(v4, load64(p + 24));
      p += 32;
    } while (p + 32 <= end);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = merge_round(h, v1);
    h = merge_round(h, v2);
    h = merge_round(h, v3);
    h = merge_round(h, v4);
  } else {
    h = kPrime5;
  }
  h += static_cast<uint64_t>(bytes.size());

  while (p + 8 <= end) {
    h ^= round64(0, load64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<uint64_t>(load32(p)) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<uint64_t>(*p) * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
    ++p;
  }
  return avalanche(h);
}

size_t FingerprintCache::KeyHash::operator()(const Key& k) const {
  // fp is already avalanched; folding the codec key through one more mix
  // keeps per-codec streams from sharing bucket patterns.
  return static_cast<size_t>(avalanche(k.fp ^ (k.codec_key * kPrime2)));
}

FingerprintCache::FingerprintCache(Config cfg) : cfg_(cfg) {
  num_shards_ = std::bit_ceil(std::max<size_t>(1, cfg_.shards));
  per_shard_ = std::max<size_t>(1, std::max<size_t>(1, cfg_.capacity) / num_shards_);
  shards_ = std::make_unique<Shard[]>(num_shards_);
}

size_t FingerprintCache::shard_index(uint64_t codec_key, uint64_t fp) const {
  // The low fingerprint bits also pick hash buckets inside the shard; shard
  // selection uses a re-mix of both halves of the key so the two splits stay
  // independent.
  return static_cast<size_t>(avalanche(fp + codec_key * kPrime3)) & (num_shards_ - 1);
}

FingerprintCache::Shard& FingerprintCache::shard_for(uint64_t codec_key, uint64_t fp) const {
  return shards_[shard_index(codec_key, fp)];
}

FingerprintCache::Lookup FingerprintCache::lookup(uint64_t codec_key, uint64_t fp,
                                                  std::span<const uint8_t> block,
                                                  SlcCodec::Decision& out) {
  const Key key{codec_key, fp};
  Shard& sh = shard_for(codec_key, fp);
  MutexLock lk(sh.m);
  auto it = sh.index.find(key);
  if (it == sh.index.end()) {
    sh.counters.record({.probed = true});
    return Lookup::kMiss;
  }
  if (cfg_.verify_on_hit) {
    const std::vector<uint8_t>& stored = it->second->content;
    if (stored.size() != block.size() ||
        !std::equal(stored.begin(), stored.end(), block.begin())) {
      sh.counters.record({.probed = true, .collision = true});
      return Lookup::kCollision;
    }
  }
  sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
  out = it->second->decision;
  sh.counters.record({.probed = true, .hit = true});
  return Lookup::kHit;
}

bool FingerprintCache::insert(uint64_t codec_key, uint64_t fp,
                              std::span<const uint8_t> block,
                              const SlcCodec::Decision& d) {
  const Key key{codec_key, fp};
  Shard& sh = shard_for(codec_key, fp);
  MutexLock lk(sh.m);
  auto it = sh.index.find(key);
  if (it != sh.index.end()) {
    // Refresh (a concurrent worker inserted the same content first, or a
    // collision under verify-on-hit re-decided the slot): last writer wins,
    // no eviction.
    it->second->decision = d;
    if (cfg_.verify_on_hit) it->second->content.assign(block.begin(), block.end());
    sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    return false;
  }
  Entry e;
  e.key = key;
  e.decision = d;
  if (cfg_.verify_on_hit) e.content.assign(block.begin(), block.end());
  sh.lru.push_front(std::move(e));
  sh.index.emplace(key, sh.lru.begin());
  bool evicted = false;
  if (sh.lru.size() > per_shard_) {
    sh.index.erase(sh.lru.back().key);
    sh.lru.pop_back();
    evicted = true;
    sh.counters.record({.evicted = true});
  }
  return evicted;
}

size_t FingerprintCache::size() const {
  size_t n = 0;
  for (size_t s = 0; s < num_shards_; ++s) {
    Shard& sh = shards_[s];
    MutexLock lk(sh.m);
    n += sh.lru.size();
  }
  return n;
}

CacheCounters FingerprintCache::counters() const {
  CacheCounters total;
  for (size_t s = 0; s < num_shards_; ++s) {
    Shard& sh = shards_[s];
    MutexLock lk(sh.m);
    total.merge(sh.counters);
  }
  return total;
}

void FingerprintCache::clear() {
  for (size_t s = 0; s < num_shards_; ++s) {
    Shard& sh = shards_[s];
    MutexLock lk(sh.m);
    sh.lru.clear();
    sh.index.clear();
  }
}

}  // namespace slc
