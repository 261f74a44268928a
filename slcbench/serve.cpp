// serve_write: kCompress requests served by one TSLC-OPT kReject stream of a
// CodecServer on a 2-worker CodecEngine.
//
// Every request is 32 consecutive blocks of a pool sampled by --seed from the
// nine apps' memory images, with a 5 ms deadline. A run interleaves its
// phases over kCycles cycles, each phase on its own server:
//   closed pass  the whole pool once, a window of requests in flight (sweep_s,
//                p50_ms)
//   overload     open loop above capacity (goodput_blk_s)
//   ladder       open loop up a fixed geometric rate ladder (max_rate_blk_s)
//   mid rate     traced runs only: open-loop Poisson arrivals below
//                saturation (per layer: client.mid_p50_ms, p99_ms, the
//                server's latency and submit times)
// Rates are absolute constants, never calibrated per run. Open-loop requests
// are timed from their scheduled send time to the moment a collector thread,
// observing tickets in order, holds the checked response; a refused or
// failed request counts as a miss of every latency limit.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include <pthread.h>
#include <sched.h>

#include "bench.h"
#include "common/rng.h"
#include "common/stats.h"
#include "compress/codec_registry.h"
#include "engine/codec_engine.h"
#include "server/codec_server.h"
#include "workloads/workload.h"

namespace slcbench {
namespace {

using namespace std::chrono_literals;

constexpr size_t kPoolBlocks = 65536;
constexpr size_t kBlocksPerRequest = 32;
constexpr auto kDeadline = 5ms;
constexpr double kDeadlineMs = 5.0;
constexpr unsigned kEngineWorkers = 2;
constexpr size_t kBatchBlocks = 64;
// A lone request waits at most this long to coalesce: a tenth of its deadline.
constexpr auto kCoalesceDelay = 500us;
// Admission budget: 256 requests, 10-15 ms of work on 2 workers. Large
// enough that a vCPU pause of up to ~20 ms, which a shared host produces
// several times a minute, delays requests instead of refusing them; an
// overload still fills it within milliseconds and sheds the excess.
constexpr size_t kInflightBlocks = 8192;
constexpr const char* kScheme = "TSLC-OPT";
constexpr size_t kMagBytes = 32;
constexpr size_t kThresholdBytes = 16;
constexpr int kSetupReps = 3;
constexpr uint64_t kCycles = 20;
constexpr size_t kClosedWindow = 6;  // 192 blocks in flight: inside the admission budget
// Latency recorded for a rejected or failed request: a miss of any limit.
constexpr double kMissMs = 1000.0;

// Offered rates in blocks/s. On the measured host (4 vCPUs) 2 workers serve
// about 0.7-0.9 Mblk/s: the mid rate sits at about a fifth of that, the
// overload rate above it.
constexpr double kMidRate = 150e3;
constexpr double kOverloadRate = 1e6;
// Rung k of the ladder offers kLadderBase * 2^(k / kRungsPerOctave) blocks/s:
// 3.5% steps from 25 kblk/s, far below capacity even in a slow minute of a
// shared host, to 3.2 Mblk/s, far above it. The walk climbs 16 rungs at a time to
// the first miss, then 4 and then 1 from the last pass, so it ends on the
// rung below the first miss as a rung-by-rung climb would, in fewer rungs.
// A rung is decided by the majority of up to three runs. They run one after
// another, each with its client threads on other CPUs of the rotation, so a
// run spoiled by a vCPU pause or a slow CPU is outvoted. Slower drift of the
// host, over seconds, is not averaged out within a rung.
constexpr double kLadderBase = 25e3;
constexpr int kRungsPerOctave = 20;
constexpr int kLadderTop = 140;
constexpr int kLadderStrides[] = {16, 4, 1};

// Slice lengths as shares of --seconds: each of the kCycles cycles runs one
// overload slice (and, traced, one mid-rate slice), and the ladder takes
// about 25 rung runs.
constexpr double kMidShare = 0.015;
constexpr double kOverloadShare = 0.012;
constexpr double kRungShare = 0.025;
// The ladder judges a rung's latency per window of the rung (see meets_limit).
constexpr size_t kWindows = 4;

// Trace ids: setup runs, then one id per request, then the layer probes.
constexpr uint64_t kSetupTrace = 1;
constexpr uint64_t kRequestTrace = 1000;
constexpr uint64_t kProbeTrace = 1'000'000'000'000;

double ladder_rate(int k) {
  return kLadderBase * std::exp2(static_cast<double>(k) / kRungsPerOctave);
}

uint64_t phase_seed(uint64_t seed, uint64_t phase) {
  return seed * 0x9E3779B97F4A7C15ull + phase * 0xBF58476D1CE4E5B9ull + 1;
}

struct Setup {
  std::vector<slc::Block> pool;
  std::vector<uint8_t> training;  ///< the pool's bytes: the codec's training sample
  slc::CodecOptions opts;
  std::shared_ptr<const slc::Compressor> codec;  ///< direct path, same options as the stream
  std::shared_ptr<slc::CodecEngine> engine;
};

struct Server {
  std::unique_ptr<slc::CodecServer> server;
  slc::StreamId stream = 0;
};

Server open_server(const Setup& s) {
  slc::CodecServer::Config cfg;
  cfg.engine = s.engine;
  cfg.batch_blocks = kBatchBlocks;
  cfg.max_inflight_blocks = kInflightBlocks;
  cfg.max_coalesce_delay = kCoalesceDelay;
  Server out;
  out.server = std::make_unique<slc::CodecServer>(cfg);
  slc::StreamConfig sc;
  sc.name = "serve";
  sc.codec = kScheme;
  sc.options = s.opts;
  sc.admission = slc::AdmissionPolicy::kReject;
  out.stream = out.server->open_stream(sc);
  return out;
}

/// Samples the pool uniformly over every block of the nine apps' memory
/// images, trains the codec on it and starts the engine.
Setup set_up(uint64_t seed, Tracer::Lane* lane, uint64_t trace_id) {
  Scope root(lane, "setup", trace_id);
  Setup s;
  {
    Scope sp(lane, "setup.pool", trace_id, root.id());
    std::vector<std::vector<uint8_t>> images;
    std::vector<size_t> first_block{0};
    for (const std::string& app : slc::workload_names()) {
      images.push_back(slc::workload_memory_image(app));
      first_block.push_back(first_block.back() + images.back().size() / slc::kBlockBytes);
    }
    slc::Rng rng(phase_seed(seed, 0));
    s.pool.reserve(kPoolBlocks);
    s.training.reserve(kPoolBlocks * slc::kBlockBytes);
    for (size_t i = 0; i < kPoolBlocks; ++i) {
      const size_t g = rng.next_below(first_block.back());
      const size_t app = static_cast<size_t>(
          std::upper_bound(first_block.begin(), first_block.end(), g) - first_block.begin() - 1);
      const uint8_t* p = images[app].data() + (g - first_block[app]) * slc::kBlockBytes;
      s.pool.emplace_back(std::span<const uint8_t>(p, slc::kBlockBytes));
      s.training.insert(s.training.end(), p, p + slc::kBlockBytes);
    }
  }
  s.opts.mag_bytes = kMagBytes;
  s.opts.threshold_bytes = kThresholdBytes;
  s.opts.training_data = s.training;
  {
    Scope sp(lane, "setup.train", trace_id, root.id());
    s.opts.trained_e2mc = slc::E2mcCompressor::train(s.training, slc::E2mcConfig{});
  }
  {
    Scope sp(lane, "setup.codec", trace_id, root.id());
    s.codec = slc::CodecRegistry::instance().create(kScheme, s.opts);
  }
  {
    Scope sp(lane, "setup.engine", trace_id, root.id());
    s.engine = std::make_shared<slc::CodecEngine>(kEngineWorkers);
  }
  return s;
}

/// Direct compress_batch of every pool block: what served payloads must equal.
using Reference = std::vector<slc::CompressedBlock>;

bool same_payload(const slc::CompressedBlock& a, const slc::CompressedBlock& b) {
  return a.bit_size == b.bit_size && a.is_compressed == b.is_compressed && a.payload == b.payload;
}

/// The client side of one response to the request at pool offset `off`:
/// true when every payload equals the direct path's.
bool check_response(const slc::Response& r, const Reference& ref, size_t off, Tracer::Lane* lane,
                    uint64_t trace_id, uint32_t parent) {
  if (r.payloads.size() != kBlocksPerRequest) return false;
  Scope sp(lane, "client.verify", trace_id, parent);
  bool ok = true;
  for (size_t j = 0; j < kBlocksPerRequest; ++j) ok &= same_payload(r.payloads[j], ref[off + j]);
  return ok;
}

struct Phase {
  uint64_t requests = 0;
  uint64_t attempted_blocks = 0;
  uint64_t served_blocks = 0;
  uint64_t rejected = 0;
  uint64_t errors = 0;
  uint64_t mismatches = 0;
  slc::PercentileTracker latency_ms;       ///< from the scheduled send time
  std::vector<double> by_due_ms;           ///< the same, in send order (one slice)
  slc::PercentileTracker late_ms;          ///< generator lateness against the schedule
  slc::PercentileTracker submit_us;        ///< time inside submit() (traced runs only)
  double wall_s = 0.0;        ///< first scheduled send -> last observation
  uint64_t inflight_max = 0;  ///< traced runs only

  void merge(const Phase& o) {
    requests += o.requests;
    attempted_blocks += o.attempted_blocks;
    served_blocks += o.served_blocks;
    rejected += o.rejected;
    errors += o.errors;
    mismatches += o.mismatches;
    latency_ms.merge(o.latency_ms);
    late_ms.merge(o.late_ms);
    submit_us.merge(o.submit_us);
    wall_s += o.wall_s;
    inflight_max = std::max(inflight_max, o.inflight_max);
  }
  double served_share() const {
    return attempted_blocks ? static_cast<double>(served_blocks) / attempted_blocks : 0.0;
  }
  /// Median latency of each of kWindows consecutive windows of the slice,
  /// by send time.
  std::vector<double> window_p50_ms() const {
    std::vector<double> out;
    const size_t n = by_due_ms.size();
    for (size_t w = 0; w < kWindows; ++w) {
      slc::PercentileTracker t;
      for (size_t i = w * n / kWindows; i < (w + 1) * n / kWindows; ++i) t.record(by_due_ms[i]);
      out.push_back(t.percentile(50));
    }
    return out;
  }
  /// The ladder's pass rule: >= 99% of attempted blocks served, the median
  /// of the windows' medians within the deadline, and no growing backlog:
  /// the last window's median within the deadline too. A median rather than
  /// a tail: on a shared host, vCPU pauses of 2-20 ms set the p99 at any
  /// rate, and in noisy stretches the p90 of the bottom rung too.
  bool meets_limit() const {
    if (errors || mismatches || served_share() < 0.99 || by_due_ms.empty()) return false;
    const std::vector<double> w = window_p50_ms();
    return median(w) <= kDeadlineMs && w.back() <= kDeadlineMs;
  }
};

/// Client threads are pinned to the process's CPUs in rotation, so that
/// every run spreads them over all CPUs alike. On a shared host the CPUs'
/// speeds differ by 10-25% and drift, and a thread the scheduler leaves on
/// one CPU would carry that CPU's speed into the whole run. Engine and
/// server threads are left to the scheduler.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }

  /// Pins the calling thread to the k-th CPU, counting round.
  void pin(size_t k) const {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[k % cpus_.size()], &set);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
  }

  /// Runs `fn` on a new thread pinned to the k-th CPU and returns its result.
  template <typename Fn>
  std::invoke_result_t<Fn> run_on(size_t k, Fn&& fn) const {
    std::invoke_result_t<Fn> out{};
    std::exception_ptr error;
    std::thread t([&] {
      try {
        pin(k);
        out = fn();
      } catch (...) {
        error = std::current_exception();
      }
    });
    t.join();
    if (error) std::rethrow_exception(error);
    return out;
  }

 private:
  std::vector<int> cpus_;
};

struct Slot {
  Clock::duration due{};  ///< offset from the slice start
  size_t off = 0;         ///< first pool block of the request
  uint32_t root = 0;      ///< reserved id of the request's root span
  slc::ServerTicket ticket;
};

/// Open-loop Poisson arrivals at `rate` blocks/s for `seconds` against `srv`.
/// The generator runs on CPU `place` of the rotation and the collector on the
/// next. With a tracer, request i of the slice records spans under trace id
/// `trace_base + i`. With `sample`, submit() times and the server's
/// in-flight level are sampled after every send.
Phase open_loop(const Setup& s, const Server& srv, const Reference& ref, const CpuRotation& cpus,
                size_t place, Tracer* tracer, bool sample, double rate, double seconds,
                uint64_t seed, uint64_t trace_base) {
  Phase ph;
  slc::Rng rng(seed);
  std::vector<Slot> slots;
  const double req_rate = rate / kBlocksPerRequest;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / req_rate;
    if (t >= seconds) break;
    Slot slot;
    slot.due = std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(t));
    slot.off = rng.next_below(kPoolBlocks - kBlocksPerRequest + 1);
    slots.push_back(std::move(slot));
  }
  ph.requests = slots.size();
  ph.attempted_blocks = slots.size() * kBlocksPerRequest;
  if (slots.empty()) return ph;

  Tracer::Lane* gen_lane = tracer ? tracer->lane() : nullptr;
  Tracer::Lane* col_lane = tracer ? tracer->lane() : nullptr;
  std::atomic<size_t> published{0};
  // Start a little in the future so both threads are up before the first send.
  const Clock::time_point t0 = Clock::now() + 5ms;
  Clock::time_point last_seen = t0;
  std::exception_ptr collector_error, generator_error;

  std::thread collector([&] {
    try {
      cpus.pin(place + 1);
      for (size_t i = 0; i < slots.size(); ++i) {
        // Spin, like the generator: at low rates a sleeping collector would
        // wake for every request, late on a virtualized host.
        while (published.load(std::memory_order_acquire) <= i) std::this_thread::yield();
        Slot& slot = slots[i];
        if (!slot.ticket.valid()) throw std::runtime_error("request was never sent");
        const uint64_t id = trace_base + i;
        slc::Response r;
        {
          Scope sp(col_lane, "server.wait", id, slot.root);
          // What wait() does, minus the condition-variable sleep: force the
          // request's batch out, then spin until it completes. A woken
          // thread can run milliseconds late on a virtualized host, which
          // would be measured as server latency.
          if (!slot.ticket.ready()) {
            srv.server->flush_stream(srv.stream);
            while (!slot.ticket.ready()) std::this_thread::yield();
          }
          r = slot.ticket.wait();
        }
        const Clock::time_point done = Clock::now();
        double lat_ms = kMissMs;
        if (r.ok()) {
          if (check_response(r, ref, slot.off, col_lane, id, slot.root)) {
            ph.served_blocks += kBlocksPerRequest;
            lat_ms = std::chrono::duration<double, std::milli>(done - (t0 + slot.due)).count();
          } else {
            ++ph.mismatches;
          }
        } else if (r.status == slc::ResponseStatus::kRejected) {
          ++ph.rejected;
        } else {
          ++ph.errors;
        }
        ph.latency_ms.record(lat_ms);
        ph.by_due_ms.push_back(lat_ms);
        if (col_lane) col_lane->add("client.request", id, slot.root, 0, t0 + slot.due, done);
        last_seen = done;
      }
    } catch (...) {
      collector_error = std::current_exception();
    }
  });

  std::thread generator([&] {
    try {
      cpus.pin(place);
      for (size_t i = 0; i < slots.size(); ++i) {
        Slot& slot = slots[i];
        const Clock::time_point due = t0 + slot.due;
        // Hold to the schedule whatever the server does. The generator spins:
        // gaps run down to tens of microseconds, and a sleeping thread can wake
        // milliseconds late on a virtualized host.
        while (Clock::now() < due) std::this_thread::yield();
        const Clock::time_point sent = Clock::now();
        ph.late_ms.record(std::chrono::duration<double, std::milli>(sent - due).count());
        slot.root = tracer ? tracer->reserve() : 0;
        {
          Scope sp(gen_lane, "server.submit", trace_base + i, slot.root);
          slot.ticket = srv.server->submit(
              srv.stream, slc::Request{.kind = slc::RequestKind::kCompress,
                                       .blocks = std::span<const slc::Block>(s.pool).subspan(
                                           slot.off, kBlocksPerRequest),
                                       .deadline = kDeadline,
                                       .tag = i});
        }
        if (sample) {
          ph.submit_us.record(
              std::chrono::duration<double, std::micro>(Clock::now() - sent).count());
          ph.inflight_max = std::max<uint64_t>(ph.inflight_max, srv.server->inflight_blocks());
        }
        published.store(i + 1, std::memory_order_release);
      }
    } catch (...) {
      generator_error = std::current_exception();
      published.store(slots.size(), std::memory_order_release);  // unblock the collector
    }
  });
  generator.join();
  collector.join();
  if (generator_error) std::rethrow_exception(generator_error);
  if (collector_error) std::rethrow_exception(collector_error);
  srv.server->drain();
  ph.wall_s = seconds_between(t0, last_seen);
  return ph;
}

/// One pass of the whole pool, closed loop: a single client keeps
/// kClosedWindow requests in flight and handles the oldest response before
/// sending the next request. Records each request's latency, from submit()
/// to the checked response, and returns host seconds for the pass.
double closed_pass(const Setup& s, const Server& srv, const Reference& ref, Tracer::Lane* lane,
                   uint64_t trace_base, Phase& ph) {
  struct InFlight {
    slc::ServerTicket ticket;
    uint32_t root = 0;
    Clock::time_point sent{};
  };
  const size_t n = kPoolBlocks / kBlocksPerRequest;
  std::vector<InFlight> window(kClosedWindow);
  size_t head = 0;
  auto handle_oldest = [&] {
    InFlight& f = window[head % kClosedWindow];
    const uint64_t id = trace_base + head;
    slc::Response r;
    {
      Scope sp(lane, "server.wait", id, f.root);
      r = f.ticket.wait();
    }
    const Clock::time_point done = Clock::now();
    if (!r.ok()) {
      ++(r.status == slc::ResponseStatus::kRejected ? ph.rejected : ph.errors);
    } else if (check_response(r, ref, head * kBlocksPerRequest, lane, id, f.root)) {
      ph.served_blocks += kBlocksPerRequest;
      ph.latency_ms.record(std::chrono::duration<double, std::milli>(done - f.sent).count());
    } else {
      ++ph.mismatches;
    }
    ++head;
  };

  const auto t0 = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    if (i >= kClosedWindow) handle_oldest();
    InFlight& f = window[i % kClosedWindow];
    f.root = lane ? lane->tracer().reserve() : 0;
    f.sent = Clock::now();
    {
      Scope sp(lane, "server.submit", trace_base + i, f.root);
      f.ticket = srv.server->submit(
          srv.stream,
          slc::Request{.kind = slc::RequestKind::kCompress,
                       .blocks = std::span<const slc::Block>(s.pool).subspan(
                           i * kBlocksPerRequest, kBlocksPerRequest),
                       .deadline = kDeadline,
                       .tag = i});
    }
  }
  while (head < n) handle_oldest();
  ph.requests += n;
  ph.attempted_blocks += n * kBlocksPerRequest;
  return seconds_between(t0, Clock::now());
}

/// The climb over the fixed rate ladder behind max_rate_blk_s, one rung run
/// at a time: strides of 16, then 4, then 1 rung from the highest pass, each
/// level ending at its first miss. A rung passes or misses by the majority
/// of its runs: two agreeing runs decide it, a split takes a third.
class LadderWalk {
 public:
  bool done() const { return done_; }
  int next() const { return next_; }
  int best() const { return best_; }

  /// Records whether a run of rung next() met the limit.
  void record(bool pass) {
    ++(pass ? passes_ : misses_);
    if (passes_ < 2 && misses_ < 2) return;
    pass = passes_ >= 2;
    passes_ = misses_ = 0;
    if (pass) {
      best_ = next_;
      next_ += kLadderStrides[level_];
      if (next_ < limit_) return;
    } else {
      limit_ = next_;
    }
    for (;;) {  // next stride level
      if (best_ < 0 || ++level_ == std::size(kLadderStrides)) {
        done_ = true;
        return;
      }
      next_ = best_ + kLadderStrides[level_];
      if (next_ < limit_) return;
    }
  }

 private:
  int best_ = -1;               ///< highest rung that passed
  int limit_ = kLadderTop + 1;  ///< lowest rung that missed
  int next_ = 0;
  int passes_ = 0;
  int misses_ = 0;
  size_t level_ = 0;
  bool done_ = false;
};

/// Median blocks/s of `fn` (which handles `blocks` blocks per call) over at
/// least three calls and about `budget_s` seconds.
template <typename Fn>
double rate_probe(size_t blocks, double budget_s, Fn&& fn) {
  std::vector<double> rates;
  const auto start = Clock::now();
  while (rates.size() < 3 || seconds_between(start, Clock::now()) < budget_s) {
    const auto t0 = Clock::now();
    fn();
    rates.push_back(static_cast<double>(blocks) / seconds_between(t0, Clock::now()));
  }
  return median(std::move(rates));
}

/// Counts a phase's requests. Errors and wrong results are failures; so are
/// refusals in the closed pass, whose window fits the admission budget.
/// Open-loop refusals are what the served share, latency and rate metrics
/// measure, and show there.
void add_phase_counts(Result& res, const Phase& ph, bool closed_loop) {
  res.attempted += ph.requests;
  res.failed += ph.errors + ph.mismatches;
  if (closed_loop) res.failed += ph.rejected;
  res.check(ph.mismatches == 0, "served payload differs from direct compress_batch");
  res.check(ph.errors == 0, "server returned kError");
}

}  // namespace

Result run_serve(const Options& opt, Tracer& tracer) {
  Result res;
  Tracer::Lane* lane = tracer.lane();
  res.meta["engine_workers"] = std::to_string(kEngineWorkers);
  res.meta["sim_workers"] = "none (no simulation)";
  res.meta["inputs"] = "pool and arrivals drawn from --seed";

  std::vector<double> setup_times;
  Setup s;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    s = set_up(opt.seed, lane, kSetupTrace + static_cast<uint64_t>(r));
    const Server first = open_server(s);
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }

  const Reference ref = s.codec->compress_batch(s.pool);

  // The phases run in kCycles interleaved slices, so that every metric
  // samples the whole run rather than one stretch of it: a shared host's
  // speed drifts by 10% and more over seconds. The mid-rate phase feeds
  // per-layer metrics only, so untraced runs skip it.
  Tracer* const traced = lane ? &tracer : nullptr;
  const Server closed_srv = open_server(s);
  const Server over_srv = open_server(s);
  Server mid_srv;
  if (traced) mid_srv = open_server(s);
  Phase closed, mid, over;
  std::vector<double> closed_s, overhead, mid_slice_p99;
  const CpuRotation cpus;
  LadderWalk walk;
  uint64_t next_id = kRequestTrace;
  uint64_t ladder_runs = 0;
  auto run_rung = [&] {
    const int k = walk.next();
    const Server srv = open_server(s);
    const Phase ph = open_loop(s, srv, ref, cpus, ladder_runs, nullptr, false, ladder_rate(k),
                               kRungShare * opt.seconds, phase_seed(opt.seed, 3000 + ladder_runs),
                               next_id);
    ++ladder_runs;
    next_id += ph.requests;
    add_phase_counts(res, ph, false);
    std::printf("  rung %3d  offered %9.0f blk/s  p50 %7.3f ms  p90 %8.3f ms  window p50 median"
                " %8.3f ms  last window p50 %8.3f ms  served %.4f  %s\n",
                k, ladder_rate(k), ph.latency_ms.percentile(50), ph.latency_ms.percentile(90),
                median(ph.window_p50_ms()), ph.window_p50_ms().back(),
                ph.served_share(), ph.meets_limit() ? "pass" : "miss");
    walk.record(ph.meets_limit());
  };

  for (uint64_t c = 0; c < kCycles; ++c) {
    const double t =
        cpus.run_on(c, [&] { return closed_pass(s, closed_srv, ref, nullptr, 0, closed); });
    closed_s.push_back(t);
    if (lane) {
      // The pass thread borrows this thread's lane while this thread waits.
      overhead.push_back(cpus.run_on(c, [&] {
                           return closed_pass(s, closed_srv, ref, lane, next_id, closed);
                         }) / t - 1.0);
      next_id += kPoolBlocks / kBlocksPerRequest;
      const Phase m = open_loop(s, mid_srv, ref, cpus, c + 1, traced, true, kMidRate,
                                kMidShare * opt.seconds, phase_seed(opt.seed, 1000 + c), next_id);
      next_id += m.requests;
      mid_slice_p99.push_back(m.latency_ms.percentile(99));
      mid.merge(m);
    }
    // Overload slices sample the in-flight level but record no spans: at
    // about 30k requests/s their spans would dwarf the rest of the trace.
    over.merge(open_loop(s, over_srv, ref, cpus, c + 2, nullptr, traced, kOverloadRate,
                         kOverloadShare * opt.seconds, phase_seed(opt.seed, 2000 + c), 0));
    // Two ladder runs per cycle spread the climb over the whole run; the
    // runs that decide one rung still fall back to back.
    for (int r = 0; r < 2 && !walk.done(); ++r) run_rung();
  }
  while (!walk.done()) run_rung();
  add_phase_counts(res, closed, true);
  add_phase_counts(res, mid, false);
  add_phase_counts(res, over, false);

  res.end_to_end["setup_s"] = median(setup_times);
  res.end_to_end["sweep_s"] = median(closed_s);
  res.end_to_end["p50_ms"] = closed.latency_ms.percentile(50);
  res.end_to_end["goodput_blk_s"] = static_cast<double>(over.served_blocks) / over.wall_s;
  res.end_to_end["max_rate_blk_s"] = walk.best() >= 0 ? ladder_rate(walk.best()) : 0.0;
  std::printf("closed pass %.4f s (%zu blocks, window %zu), request p50 %.3f ms; "
              "overload %.0f blk/s: goodput %.0f blk/s, served %.3f; max rate %.0f blk/s\n",
              res.end_to_end["sweep_s"], kPoolBlocks, kClosedWindow, res.end_to_end["p50_ms"],
              kOverloadRate, res.end_to_end["goodput_blk_s"], over.served_share(),
              res.end_to_end["max_rate_blk_s"]);
  if (!lane) return res;

  std::printf("mid %.0f blk/s: %llu requests, p50 %.3f ms, p99 %.3f ms (median of slices; "
              "pooled %.3f ms)\n",
              kMidRate, static_cast<unsigned long long>(mid.requests),
              mid.latency_ms.percentile(50), median(mid_slice_p99), mid.latency_ms.percentile(99));
  auto& L = res.per_layer;
  L["p99_ms"] = median(mid_slice_p99);
  const slc::StreamStats mid_stats = mid_srv.server->stream_stats(mid_srv.stream);
  const slc::StreamStats over_stats = over_srv.server->stream_stats(over_srv.stream);
  L["client.late_ms_p99"] = mid.late_ms.percentile(99);
  L["client.pooled_p99_ms"] = mid.latency_ms.percentile(99);
  L["client.mid_p50_ms"] = mid.latency_ms.percentile(50);
  L["server.submit_us_p50"] = mid.submit_us.percentile(50);
  L["server.submit_us_p99"] = mid.submit_us.percentile(99);
  L["server.latency_p50_ms"] = mid_stats.latency.percentile(50) * 1e3;
  L["server.latency_p99_ms"] = mid_stats.latency.percentile(99) * 1e3;
  L["server.rejected"] = static_cast<double>(over_stats.rejected);
  L["server.deadline_misses"] = static_cast<double>(over_stats.deadline_misses);
  L["server.inflight_blocks_max"] = static_cast<double>(over.inflight_max);
  L["trace.overhead_frac"] = median(overhead);
  std::vector<Span> setup_spans;
  for (const Span& sp : tracer.spans())
    if (sp.trace_id < kRequestTrace) setup_spans.push_back(sp);
  L["setup.train_s"] = span_times(setup_spans).total.at("setup.train") / kSetupReps;

  // Layer capacity probes, outside every timed phase.
  L["engine.compress_blk_s"] = rate_probe(kPoolBlocks, 0.5, [&] {
    Scope sp(lane, "engine.submit_compress", kProbeTrace);
    s.engine->submit_compress(*s.codec, s.pool).wait();
  });
  L["compress.compress_blk_s"] = rate_probe(kPoolBlocks, 0.5, [&] {
    Scope sp(lane, "compress.compress_batch", kProbeTrace + 1);
    s.codec->compress_batch(s.pool);
  });
  L["compress.decompress_blk_s"] = rate_probe(kPoolBlocks, 0.5, [&] {
    Scope sp(lane, "compress.decompress", kProbeTrace + 2);
    for (const slc::CompressedBlock& cb : ref) s.codec->decompress(cb, slc::kBlockBytes);
  });
  return res;
}

}  // namespace slcbench
