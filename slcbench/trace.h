// Span recorder for the benchmark's traced runs.
//
// Spans are recorded only around the calls the benchmark makes into the
// library's layers, never inside src/. A span has a name, a start and an
// end, the id of the span that caused it (0 = root) and a trace id shared
// by every span of one request or one app x scheme run. Each thread records
// into its own Lane, so recording takes no lock; spans stay in memory and
// are merged and written out once the run ends. With tracing off every call
// is a no-op, which is what the untraced (end-to-end) runs use.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace slcbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name = "";  ///< static string: "<layer>.<call>"
  uint64_t trace_id = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = root
  Clock::time_point start{};
  Clock::time_point end{};
};

class Tracer {
 public:
  /// One thread's span buffer. Only its owning thread appends to it.
  class Lane {
   public:
    explicit Lane(Tracer& tracer) : tracer_(tracer) {}
    void add(const char* name, uint64_t trace_id, uint32_t id, uint32_t parent,
             Clock::time_point start, Clock::time_point end) {
      spans_.push_back(Span{name, trace_id, id, parent, start, end});
    }
    Tracer& tracer() { return tracer_; }

   private:
    friend class Tracer;
    Tracer& tracer_;
    std::vector<Span> spans_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A new lane for the calling thread; null when tracing is off.
  Lane* lane();

  /// Allocates a span id before the span is recorded, so spans on other
  /// threads can name it as their parent. 0 when tracing is off.
  uint32_t reserve() { return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0; }

  /// Every recorded span. Call only after all recording threads finished.
  std::vector<Span> spans() const;

  /// Writes spans as tab-separated lines after a `# <meta_json>` header:
  /// name, trace id, span id, parent id, start (us from `origin`), duration (us).
  bool write(const std::string& path, Clock::time_point origin, const std::string& meta_json) const;

 private:
  bool enabled_;
  std::atomic<uint32_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // guarded by mutex_
};

/// Records one span from construction to destruction (no-op without a lane).
class Scope {
 public:
  Scope(Tracer::Lane* lane, const char* name, uint64_t trace_id, uint32_t parent = 0)
      : lane_(lane), name_(name), trace_id_(trace_id), parent_(parent) {
    if (lane_) {
      id_ = lane_->tracer().reserve();
      start_ = Clock::now();
    }
  }
  ~Scope() {
    if (lane_) lane_->add(name_, trace_id_, id_, parent_, start_, Clock::now());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer::Lane* lane_;
  const char* name_;
  uint64_t trace_id_;
  uint32_t parent_;
  uint32_t id_ = 0;
  Clock::time_point start_{};
};

/// Seconds per span name: `total` sums durations, `self` subtracts the part
/// of each span's interval that its children cover.
struct SpanTimes {
  std::map<std::string, double> total;
  std::map<std::string, double> self;
};
SpanTimes span_times(const std::vector<Span>& spans);

}  // namespace slcbench
