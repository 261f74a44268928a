// Top-level cycle-level GPU memory-subsystem simulator (Fig. 3's system):
// SMs replay per-kernel block traces; misses traverse interconnect -> sliced
// L2 -> memory controller (metadata cache + compressor/decompressor) ->
// GDDR5 channel. Kernels execute back-to-back with a full drain barrier
// between launches, as GPGPU-Sim does for dependent kernels.
//
// The trace carries each block's compressed burst count (produced by the
// same codec decisions that generated the functional approximation), so
// timing and error derive from identical compression outcomes.
//
// Streaming + sharding (see docs/ARCHITECTURE.md "Streaming simulation"):
// run(TraceStream&) replays kernels as a producer publishes them, so the
// materialized trace never has to exist; run(const vector&) is a thin
// adapter wrapping the vector in a pre-closed stream of borrowed chunks.
// Within a run, the per-step memory-controller phase is sharded across
// cfg.sim_workers threads — each worker owns a fixed, disjoint set of MCs
// (mc_index already partitions addresses by channel), every piece of
// mutable MC state (L2/MDC slice, DRAM channel, queues, read-tag pool, and
// a private SimStats accumulator) lives inside that MC, and SM issue /
// response delivery stay on the driver thread between two atomic barriers.
// Per-MC stats reconcile via SimStats::merge() at the end of the run, in
// fixed channel order — so 1-worker and N-worker runs are bit-identical,
// the same thread-count-invariance discipline the engine enforces.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "sim/cache.h"
#include "sim/dram.h"
#include "sim/sim_config.h"
#include "sim/trace_stream.h"
#include "workloads/approx_memory.h"

namespace slc {

class GpuSim {
 public:
  explicit GpuSim(GpuSimConfig cfg);

  /// Runs all kernels of a materialized trace; returns the accumulated
  /// counters. Thin adapter over the stream path: the vector is wrapped in
  /// an already-closed stream of borrowed (non-owning) chunks, so the
  /// reported stream watermarks equal the whole trace — the honest
  /// footprint of materialize-then-replay.
  SimStats run(const std::vector<KernelTrace>& trace);

  /// Streaming replay: pops kernel chunks until the stream closes and
  /// drains. An empty closed stream returns zeroed stats. The producer owns
  /// close(); this consumer never cancels — callers tearing down early
  /// cancel the stream themselves.
  SimStats run(TraceStream& stream);

  /// Replays the trace captured in `mem`, flushing its pending async region
  /// commits first — the burst counts a replay consumes must be final, so
  /// this is the safe way to chain a pipelined functional run into the
  /// timing simulation.
  SimStats run(ApproxMemory& mem);

  const GpuSimConfig& config() const { return cfg_; }

 private:
  struct SmState {
    std::vector<TraceAccess> queue;
    size_t next = 0;
    double credit = 0.0;     ///< compute cycles owed before the next issue
    unsigned outstanding = 0;///< in-flight read misses
  };

  /// A request travelling between components, keyed by arrival cycle.
  struct InFlight {
    TraceAccess access;
    uint16_t sm = 0;
    uint64_t ready = 0;  ///< cycle it becomes visible to the next stage
  };
  struct ReadyOrder {
    bool operator()(const InFlight& a, const InFlight& b) const { return a.ready > b.ready; }
  };
  using InFlightQueue = std::priority_queue<InFlight, std::vector<InFlight>, ReadyOrder>;

  /// One memory partition: everything a worker touches while processing the
  /// channel lives here — no MC shares mutable state with another MC or
  /// with the driver during the parallel phase, which is the whole
  /// determinism argument. `stats` is declared first: DramChannel holds a
  /// reference to it, so it must outlive (construct before) `dram`; McState
  /// is heap-pinned (unique_ptr in mcs_) so the reference never moves.
  struct McState {
    SimStats stats;           ///< this channel's private counters
    Cache l2;
    Cache mdc;
    DramChannel dram;
    InFlightQueue arrivals;   ///< requests crossing the interconnect
    InFlightQueue staged;     ///< writebacks waiting out the compress latency
    InFlightQueue responses;  ///< read data returning to SMs via this MC
    std::vector<InFlight> inflight_reads;  ///< indexed by DRAM tag
    std::vector<uint64_t> free_tags;       ///< released tags, reused LIFO
    explicit McState(const GpuSimConfig& cfg);
    uint64_t alloc_tag(const InFlight& f);
  };

  GpuSimConfig cfg_;
  SimStats stats_;  ///< driver-side counters (SM issue path) + merge target
  std::vector<SmState> sms_;
  std::vector<Cache> l1_;
  std::vector<std::unique_ptr<McState>> mcs_;
  uint64_t cycle_ = 0;

  // MC-phase shard pool, alive for the duration of one run(). The driver is
  // shard 0; `active_workers_` extra threads take shards 1..N-1. Each step:
  // the driver bumps `epoch_` (release) after the serial SM-issue phase,
  // every thread processes its fixed stride of MCs, workers bump `done_`
  // (release) and the driver spins (acquire) until all are in — a two-sided
  // barrier whose release/acquire pairs carry the cross-thread visibility,
  // so the phase needs no locks and stays TSan-clean.
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> done_{0};
  std::atomic<bool> stop_{false};
  unsigned active_workers_ = 0;  ///< extra threads (total shards - 1)

  size_t mc_index(uint64_t addr) const;
  /// Channel-local address: strips the channel-interleave bits so row/bank
  /// decoding sees the contiguous space this channel actually owns (16
  /// consecutive line accesses per 2 KB row instead of 4).
  uint64_t channel_local(uint64_t addr) const;
  void sm_issue(uint16_t sm_id, double compute_scale);
  void mc_process(size_t mc_id);
  /// One barrier-bracketed pass of mc_process over every channel —
  /// sharded when workers are up, a plain loop otherwise.
  void mc_phase();
  void worker_loop(unsigned shard, unsigned num_shards);
  void deliver_responses();
  bool drained() const;
  uint64_t next_event_cycle() const;
  void run_kernel(const KernelTrace& kernel);
  void begin_run();
  SimStats end_run();
  void start_workers();
  void stop_workers();  ///< idempotent
};

}  // namespace slc
