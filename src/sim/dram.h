// GDDR5 channel model: banks with open-row policy, FR-FCFS scheduling
// (row hits first, then oldest), and a data bus tracked in 16 B beats so any
// MAG (16/32/64 B) occupies the pins for exactly its transfer share.
//
// Bank and row are decoded once, at enqueue, and each queue counts its
// in-window requests per bank, so a scheduling step costs O(banks) plus at
// most one window scan. tests/reference_dram.h keeps the plain scan-based
// model as the differential oracle.
//
// A burst of MAG bytes takes mag/16 beats; the bus moves `beats_per_cycle`
// (2 by default -> 32 B per memory cycle per channel, Table II's 192.4 GB/s
// across six channels).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/sim_config.h"

namespace slc {

/// One pending DRAM command (a whole compressed-block fetch/write of
/// `bursts` consecutive MAG bursts, plus metadata fills of one burst).
struct DramRequest {
  uint64_t addr = 0;
  uint32_t bursts = 1;
  bool write = false;
  bool metadata = false;
  uint64_t enqueue_cycle = 0;
  uint64_t tag = 0;  ///< caller cookie to match completions
};

struct DramCompletion {
  uint64_t tag = 0;
  bool write = false;
  bool metadata = false;
  uint64_t finish_cycle = 0;
};

class DramChannel {
 public:
  DramChannel(const GpuSimConfig& cfg, SimStats& stats);

  /// Enqueue a request; bank and row are decoded here, once.
  void push_read(const DramRequest& r) { push(reads_, r); }
  void push_write(const DramRequest& r) { push(writes_, r); }

  /// Advances scheduling up to `cycle`; completed requests appear in
  /// completions(). Returns true if any work remains queued or in flight.
  void tick(uint64_t cycle);

  bool busy() const {
    return !reads_.entries.empty() || !writes_.entries.empty() || !completions_.empty();
  }
  size_t read_queue_depth() const { return reads_.entries.size(); }
  size_t write_queue_depth() const { return writes_.entries.size(); }

  std::deque<DramCompletion>& completions() { return completions_; }
  const std::deque<DramCompletion>& completions() const { return completions_; }

  /// Next cycle at which this channel can possibly make progress (for the
  /// simulator's idle fast-forward).
  uint64_t next_event_cycle(uint64_t now) const;

 private:
  struct Bank {
    bool row_open = false;
    uint64_t open_row = 0;
    uint64_t ready_cycle = 0;  ///< earliest next column command
    uint64_t act_cycle = 0;    ///< when the open row was activated (tRAS)
  };

  /// A queued request with its bank and row, decoded at enqueue.
  struct Entry {
    DramRequest req;
    uint32_t bank = 0;
    uint64_t row = 0;
  };

  /// One request queue (reads or writes) in arrival order.
  /// Invariant: in_window[b] is the number of the first
  /// min(entries.size(), scheduler_window) entries that target bank b — the
  /// FR-FCFS candidates — so "is any candidate's bank ready?" and the next
  /// event cost O(banks), not a window scan.
  struct Queue {
    std::deque<Entry> entries;
    std::vector<uint32_t> in_window;
  };

  const GpuSimConfig& cfg_;
  SimStats& stats_;
  std::vector<Bank> banks_;
  uint64_t bus_free_cycle_ = 0;
  Queue reads_;
  Queue writes_;
  std::deque<DramCompletion> completions_;

  void push(Queue& q, const DramRequest& r);
  /// Issues one request if a bank + the bus can take it; returns true if
  /// something was scheduled.
  bool try_issue(Queue& q, uint64_t cycle);
};

}  // namespace slc
