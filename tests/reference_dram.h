// Scan-based reference DRAM channel: the differential oracle for
// src/sim/dram.h, whose scheduler keeps per-bank window counts instead.
//
// This is the straightforward model the library's channel was derived from.
// Every FR-FCFS pick re-decodes bank and row from the address and makes two
// passes over the scheduler window (oldest ready row hit, then oldest ready
// request), and next_event_cycle rescans both queues. It shares only the
// request/completion types and the config with the library, so
// tests/test_dram.cpp can hold the two to identical completions, counters
// and next-event cycles on any request sequence.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/dram.h"
#include "sim/sim_config.h"

namespace slc::ref {

class DramChannel {
 public:
  DramChannel(const GpuSimConfig& cfg, SimStats& stats);

  void push_read(const DramRequest& r) { reads_.push_back(r); }
  void push_write(const DramRequest& r) { writes_.push_back(r); }

  /// Issues at most one read and at most one write at `cycle`.
  void tick(uint64_t cycle);

  bool busy() const { return !reads_.empty() || !writes_.empty() || !completions_.empty(); }
  size_t read_queue_depth() const { return reads_.size(); }
  size_t write_queue_depth() const { return writes_.size(); }

  std::deque<DramCompletion>& completions() { return completions_; }

  /// Next cycle at which this channel can possibly make progress.
  uint64_t next_event_cycle(uint64_t now) const;

 private:
  struct Bank {
    bool row_open = false;
    uint64_t open_row = 0;
    uint64_t ready_cycle = 0;
    uint64_t act_cycle = 0;
  };

  const GpuSimConfig& cfg_;
  SimStats& stats_;
  std::vector<Bank> banks_;
  uint64_t bus_free_cycle_ = 0;
  std::deque<DramRequest> reads_;
  std::deque<DramRequest> writes_;
  std::deque<DramCompletion> completions_;

  void locate(uint64_t addr, size_t* bank, uint64_t* row) const;
  bool try_issue(std::deque<DramRequest>& q, uint64_t cycle);
};

}  // namespace slc::ref
