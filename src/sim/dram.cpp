#include "sim/dram.h"

#include <algorithm>

namespace slc {

DramChannel::DramChannel(const GpuSimConfig& cfg, SimStats& stats) : cfg_(cfg), stats_(stats) {
  banks_.assign(cfg_.banks_per_mc, Bank{});
  reads_.in_window.assign(cfg_.banks_per_mc, 0);
  writes_.in_window.assign(cfg_.banks_per_mc, 0);
}

void DramChannel::push(Queue& q, const DramRequest& r) {
  // Channel selection happens upstream; here `addr` is already channel-local
  // enough for bank/row purposes (we hash the full address). Consecutive
  // rows interleave across banks so streams get row locality and bank
  // parallelism.
  const uint64_t chunk = r.addr / cfg_.row_bytes;
  const auto bank = static_cast<uint32_t>(chunk % cfg_.banks_per_mc);
  if (q.entries.size() < cfg_.scheduler_window) ++q.in_window[bank];
  q.entries.push_back(Entry{r, bank, chunk / cfg_.banks_per_mc});
}

bool DramChannel::try_issue(Queue& q, uint64_t cycle) {
  // FR-FCFS over the scheduler window: the oldest row hit on a ready bank,
  // else the oldest request whose bank is ready. The bank counts say how
  // many window entries are candidates; with none, nothing can issue.
  size_t candidates = 0;
  for (size_t b = 0; b < banks_.size(); ++b)
    if (banks_[b].ready_cycle <= cycle) candidates += q.in_window[b];
  if (candidates == 0) return false;

  // One pass, ending at the first row hit or the last candidate (which lies
  // inside the window).
  auto it = q.entries.end();
  for (auto cur = q.entries.begin(); candidates != 0; ++cur) {
    const Bank& bank = banks_[cur->bank];
    if (bank.ready_cycle > cycle) continue;
    if (bank.row_open && bank.open_row == cur->row) {
      it = cur;
      break;
    }
    if (it == q.entries.end()) it = cur;
    --candidates;
  }

  const DramRequest req = it->req;
  const uint64_t row = it->row;
  Bank& bank = banks_[it->bank];
  // The issued entry leaves the window; the first entry past it slides in.
  --q.in_window[it->bank];
  if (q.entries.size() > cfg_.scheduler_window)
    ++q.in_window[q.entries[cfg_.scheduler_window].bank];
  q.entries.erase(it);

  uint64_t cmd_done = cycle;
  if (bank.row_open && bank.open_row == row) {
    // Row hit: the column command issues immediately; hits stream at bus
    // rate (tCCD is hidden inside the transfer time).
    ++stats_.row_hits;
  } else {
    if (bank.row_open) {
      // Row conflict: precharge may not start before tRAS has elapsed since
      // the activate, then tRP + tRCD for the new row.
      const uint64_t pre_start = std::max(cycle, bank.act_cycle + cfg_.t_ras);
      cmd_done = pre_start + cfg_.t_rp + cfg_.t_rcd;
      bank.act_cycle = pre_start + cfg_.t_rp;
    } else {
      cmd_done = cycle + cfg_.t_rcd;
      bank.act_cycle = cycle;
    }
    bank.row_open = true;
    bank.open_row = row;
    ++stats_.row_misses;
  }
  const uint64_t data_ready = cmd_done + cfg_.t_cl;

  // Bus occupancy in beats (16 B each).
  const uint64_t beats =
      std::max<uint64_t>(1, static_cast<uint64_t>(req.bursts) * (cfg_.mag_bytes / 16));
  const uint64_t xfer_cycles = (beats + cfg_.beats_per_cycle - 1) / cfg_.beats_per_cycle;
  const uint64_t start = std::max(data_ready, bus_free_cycle_);
  const uint64_t finish = start + xfer_cycles;
  bus_free_cycle_ = finish;
  // The bank is busy until its data phase ends.
  bank.ready_cycle = finish;

  if (req.metadata) {
    stats_.metadata_bursts += req.bursts;
  } else if (req.write) {
    stats_.dram_write_bursts += req.bursts;
  } else {
    stats_.dram_read_bursts += req.bursts;
  }

  completions_.push_back(DramCompletion{req.tag, req.write, req.metadata, finish});
  return true;
}

void DramChannel::tick(uint64_t cycle) {
  // Reads have priority; writes drain when no read can issue or the write
  // queue is past the watermark.
  bool issued = try_issue(reads_, cycle);
  if (!issued || writes_.entries.size() > cfg_.write_drain_watermark) {
    try_issue(writes_, cycle);
  }
}

uint64_t DramChannel::next_event_cycle(uint64_t now) const {
  if (reads_.entries.empty() && writes_.entries.empty()) return UINT64_MAX;
  // Earliest cycle at which try_issue could schedule something: the first
  // ready cycle among the banks *targeted* by queued requests (within the
  // FR-FCFS window — banks no queued request addresses cannot unblock the
  // channel, and an idle bank's ready_cycle of 0 must not pin the skip to
  // now + 1). The bus-free cycle bounds the skip too: a transfer ending
  // frees the pins even when every targeted bank is busy longer.
  const uint64_t floor_cycle = now + 1;
  uint64_t nxt = UINT64_MAX;
  for (size_t b = 0; b < banks_.size(); ++b)
    if (reads_.in_window[b] + writes_.in_window[b] != 0)
      nxt = std::min(nxt, std::max(banks_[b].ready_cycle, floor_cycle));
  if (bus_free_cycle_ > now) nxt = std::min(nxt, bus_free_cycle_);
  return nxt;
}

}  // namespace slc
