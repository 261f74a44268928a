#include "core/slc_block_codec.h"

#include <vector>

namespace slc {

SlcBlockCodec::SlcBlockCodec(std::shared_ptr<const E2mcCompressor> lossless, SlcConfig cfg)
    : lossless_(lossless),
      cfg_(cfg),
      codec_(lossless, cfg),
      codec_lossless_only_(lossless, [cfg] {
        SlcConfig c = cfg;
        c.threshold_bytes = 0;
        return c;
      }()) {}

const SlcCodec& SlcBlockCodec::codec_for(bool safe_to_approx, size_t threshold_bytes) const {
  if (!safe_to_approx || threshold_bytes == 0) return codec_lossless_only_;
  // The effective budget is min(region threshold, config threshold); at or
  // above the config the configured codec already applies.
  if (threshold_bytes >= cfg_.threshold_bytes) return codec_;
  MutexLock lk(tight_mutex_);
  std::unique_ptr<const SlcCodec>& slot = tight_codecs_[threshold_bytes];
  if (!slot) {
    SlcConfig c = cfg_;
    c.threshold_bytes = threshold_bytes;
    slot = std::make_unique<const SlcCodec>(lossless_, c);
  }
  return *slot;
}

void SlcBlockCodec::process_batch(std::span<uint8_t> data, bool safe_to_approx,
                                  size_t threshold_bytes, BlockAnalysis* out) const {
  const SlcCodec& codec = codec_for(safe_to_approx, threshold_bytes);
  const std::vector<BlockView> views = to_views(data);
  SlcCodec::LengthScratch scratch;
  std::vector<SlcCodec::Decision> decisions(views.size());
  codec.decide_batch_cached(views, scratch, decisions.data());
  // Only lossy blocks mutate, and their decoded contents come straight from
  // the decision (window re-fill) — no payload is built either way.
  // Decisions are served from the fingerprint memo on repeat content.
  for (size_t i = 0; i < views.size(); ++i) {
    out[i] = decisions[i].analysis;
    codec.approximate(data.subspan(i * kBlockBytes, kBlockBytes), decisions[i]);
  }
}

}  // namespace slc
