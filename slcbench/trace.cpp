#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace slcbench {

Tracer::Lane* Tracer::lane() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  lanes_.push_back(std::make_unique<Lane>(*this));
  return lanes_.back().get();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& lane : lanes_) out.insert(out.end(), lane->spans_.begin(), lane->spans_.end());
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

bool Tracer::write(const std::string& path, Clock::time_point origin,
                   const std::string& meta_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "# %s\n# name\ttrace\tspan\tparent\tstart_us\tdur_us\n", meta_json.c_str());
  for (const Span& s : spans())
    std::fprintf(f, "%s\t%llu\t%u\t%u\t%.3f\t%.3f\n", s.name,
                 static_cast<unsigned long long>(s.trace_id), s.id, s.parent,
                 seconds_between(origin, s.start) * 1e6, seconds_between(s.start, s.end) * 1e6);
  return std::fclose(f) == 0;
}

SpanTimes span_times(const std::vector<Span>& spans) {
  std::unordered_map<uint32_t, std::vector<std::pair<Clock::time_point, Clock::time_point>>> kids;
  for (const Span& s : spans)
    if (s.parent != 0) kids[s.parent].emplace_back(s.start, s.end);

  SpanTimes out;
  for (const Span& s : spans) {
    const double total = seconds_between(s.start, s.end);
    double covered = 0.0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      Clock::time_point reach = s.start;
      for (auto [a, b] : iv) {
        a = std::max(a, reach);
        b = std::min(b, s.end);
        if (b > a) {
          covered += seconds_between(a, b);
          reach = b;
        }
      }
    }
    out.total[s.name] += total;
    out.self[s.name] += total - covered;
  }
  return out;
}

}  // namespace slcbench
