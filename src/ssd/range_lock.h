// Per-region dependency gates for the in-order QD scheduler (DESIGN.md §10).
//
// The logical space is cut into fixed regions of `region_sectors` sectors.
// For every region the table keeps the latest simulated completion of any
// access that touched it and of any write that touched it. A read must
// issue after the newest overlapping write has completed; a write after
// every overlapping access has completed (it must not complete before an
// older read of the data it replaces has been served).
//
// The scheduler services requests one at a time in submission order, so the
// table needs no locking: it is a flat vector indexed by region. Barriers
// (trims) are not recorded per region — the scheduler's barrier gate is at
// or after every completion older than the barrier, so it dominates every
// region gate the barrier would have cleared.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/interval.h"
#include "common/types.h"

namespace af::ssd {

class RangeLockTable {
 public:
  /// `region_sectors`: sectors per gate region; `logical_sectors` sizes the
  /// table to cover the whole logical space.
  RangeLockTable(std::uint64_t region_sectors, std::uint64_t logical_sectors)
      : region_sectors_(region_sectors) {
    AF_CHECK_MSG(region_sectors_ > 0, "gate table needs a region size");
    gates_.resize((logical_sectors + region_sectors_ - 1) / region_sectors_);
  }

  RangeLockTable(const RangeLockTable&) = delete;
  RangeLockTable& operator=(const RangeLockTable&) = delete;

  /// Counted since construction.
  struct Stats {
    std::uint64_t acquisitions = 0;  // every gated request, barriers included
    std::uint64_t barrier_acquisitions = 0;
    std::uint64_t region_entries = 0;  // regions gated by non-barrier requests
  };

  /// The regions [first, last] a request touches.
  struct Span {
    std::uint64_t first = 0;
    std::uint64_t last = 0;
  };

  [[nodiscard]] Span span(SectorRange range) const {
    AF_CHECK_MSG(!range.empty() && range.end <= region_sectors_ * gates_.size(),
                 "request outside the gate table");
    return {range.begin / region_sectors_, (range.end - 1) / region_sectors_};
  }

  /// Counts one request over `regions` and returns the completion it must
  /// issue after: the newest overlapping write for a read, the newest
  /// overlapping access of any kind for a write.
  [[nodiscard]] SimTime acquire(Span regions, bool write) {
    stats_.acquisitions += 1;
    stats_.region_entries += regions.last - regions.first + 1;
    SimTime gate = 0;
    for (std::uint64_t r = regions.first; r <= regions.last; ++r) {
      gate = std::max(gate, write ? gates_[r].last_any : gates_[r].last_excl);
    }
    return gate;
  }

  /// Counts one barrier; its ordering lives in the scheduler's barrier gate.
  void acquire_barrier() {
    stats_.acquisitions += 1;
    stats_.barrier_acquisitions += 1;
  }

  /// Records a request over `regions` that completes at `done`.
  void complete(Span regions, bool write, SimTime done) {
    for (std::uint64_t r = regions.first; r <= regions.last; ++r) {
      gates_[r].last_any = std::max(gates_[r].last_any, done);
      if (write) gates_[r].last_excl = std::max(gates_[r].last_excl, done);
    }
  }

  /// Zeroes every gate; the stats keep counting.
  void clear_gates() { std::fill(gates_.begin(), gates_.end(), Gate{}); }

  [[nodiscard]] Stats stats() const { return stats_; }
  [[nodiscard]] std::uint64_t region_sectors() const {
    return region_sectors_;
  }

 private:
  struct Gate {
    SimTime last_any = 0;   // latest completion touching the region
    SimTime last_excl = 0;  // latest write completion touching the region
  };

  const std::uint64_t region_sectors_;
  std::vector<Gate> gates_;
  Stats stats_;
};

}  // namespace af::ssd
