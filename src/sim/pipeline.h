// SsdPipeline — the in-order queue-depth scheduler (DESIGN.md §10).
//
// Wraps one sim::Ssd in a closed-loop host driver with a bounded submission
// window (`SsdConfig::PipelineConfig::queue_depth`). Each submit() services
// its request on the caller thread, in submission order: it computes the
// simulated issue time, runs the device stage, and verifies a read's plan
// against the oracle before returning.
//
// Determinism contract: every simulated number — issue/completion times,
// stats, oracle state, GC decisions — is a pure function of
// (config, submission sequence, queue depth).
//
// Closed-loop timing: trace arrival times are ignored. A request's simulated
// issue time is max(previous issue, slot gate, dependency gate) where the
// slot gate pops the earliest in-flight completion once queue_depth
// simulated requests are outstanding (fio-style QD semantics), and the
// dependency gate orders overlapping extents (reads after the last
// overlapping write, writes after every overlapping access) and barriers
// (trims/flushes after everything, everything after them). QD=1 therefore
// chains every request behind the previous completion — exactly the serial
// engine driven one-request-at-a-time, which the tests check bit-identically.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "ftl/request.h"
#include "nand/power.h"
#include "sim/ssd.h"
#include "ssd/range_lock.h"

namespace af::sim {

class SsdPipeline {
 public:
  SsdPipeline(const ssd::SsdConfig& config, ftl::SchemeKind kind);

  SsdPipeline(const SsdPipeline&) = delete;
  SsdPipeline& operator=(const SsdPipeline&) = delete;

  /// Per-request outcome, indexed by submission sequence. `submitted` /
  /// `done` are the simulated device issue/completion times; the request a
  /// power cut interrupted stays `executed = false`.
  /// `queue_delay` is submitted − trace arrival: zero in closed-loop mode
  /// (arrival timestamps are ignored there), and the time a request waited
  /// behind dependencies in open-loop mode — reported separately from the
  /// service time (done − submitted) so queueing is priced, not hidden.
  struct CompletionRecord {
    SimTime submitted = 0;
    SimTime done = 0;
    SimDuration queue_delay = 0;
    ssd::ReqClass cls = ssd::ReqClass::kNormalRead;
    bool executed = false;
    bool accepted = false;
    bool data_lost = false;
  };

  /// Serial warm-up; call reset_measurement() afterwards, before the first
  /// submit().
  void age(double used_fraction, double live_fraction, std::uint64_t seed);

  /// Clears device stats and all scheduler timing state.
  void reset_measurement();

  /// Services one request. Arrival time is ignored unless open loop. Throws
  /// nand::PowerLoss when the request's device stage hits an armed power
  /// cut, and at every later submit() or flush().
  void submit(const ftl::IoRequest& req);

  /// Barrier: every submitted request has already completed, so this only
  /// reports a crash. Throws nand::PowerLoss after one.
  void flush();

  /// flush() + the end-of-run bookkeeping hook. Call before reading any
  /// accessor below.
  void drain();

  [[nodiscard]] Ssd& device() { return device_; }
  [[nodiscard]] const Ssd& device() const { return device_; }

  [[nodiscard]] std::uint32_t queue_depth() const { return queue_depth_; }
  /// Worker threads the scheduler runs: always 0, everything runs on the
  /// caller thread.
  [[nodiscard]] std::uint32_t workers() const { return 0; }

  [[nodiscard]] const std::vector<CompletionRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::uint64_t submitted() const { return records_.size(); }
  [[nodiscard]] std::uint64_t verified_sectors() const {
    return verified_sectors_;
  }
  [[nodiscard]] std::uint64_t lost_requests() const { return lost_requests_; }
  /// Latest simulated completion of the measured phase.
  [[nodiscard]] SimTime makespan_ns() const { return makespan_; }
  [[nodiscard]] ssd::RangeLockTable::Stats lock_stats() const {
    return locks_.stats();
  }

  // Crash introspection for the power-cut harness (post-PowerLoss).
  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] std::uint64_t crash_op_index() const { return crash_op_; }
  /// Range of the write interrupted mid-flight (empty if the cut hit a
  /// read/erase) and its pre-submission stamps — the only sectors the
  /// post-mount oracle sweep may tolerate at the old version.
  [[nodiscard]] SectorRange crash_inflight() const { return crash_inflight_; }
  [[nodiscard]] const std::vector<std::uint64_t>& crash_pre_stamps() const {
    return crash_pre_stamps_;
  }

 private:
  using MinHeap =
      std::priority_queue<SimTime, std::vector<SimTime>, std::greater<>>;

  /// QD<=1: issues when the previous request completed, through the serial
  /// Ssd::submit (which verifies reads itself).
  [[nodiscard]] Ssd::Completion submit_inline(ftl::IoRequest& io);
  /// Computes the simulated issue time, services the request (oracle
  /// mutation included) and updates every gate.
  [[nodiscard]] Ssd::Completion device_stage(ftl::IoRequest& io);
  void verify(const ftl::IoRequest& io);
  void capture_pre_stamps(const ftl::IoRequest& io);
  void on_power_loss(const ftl::IoRequest& io, std::uint64_t op_index);
  [[nodiscard]] MinHeap& tenant_heap(std::uint16_t tenant);

  const std::uint32_t queue_depth_;
  const bool enabled_;
  const bool open_loop_;
  /// Fair-share per-tenant slot cap (1 when fair share is unarmed).
  const std::uint32_t tenant_window_;

  Ssd device_;
  ssd::RangeLockTable locks_;
  ftl::ReadPlan plan_;  // the current read's observed stamps, reused

  bool crashed_ = false;
  std::uint64_t crash_op_ = 0;
  SectorRange crash_inflight_{};
  std::vector<std::uint64_t> crash_pre_stamps_;
  std::uint64_t verified_sectors_ = 0;
  std::uint64_t lost_requests_ = 0;
  std::vector<CompletionRecord> records_;

  // Simulated closed-loop gates.
  MinHeap slots_;
  // Fair-share submission gate (DESIGN.md §12): per-tenant slot heaps, sized
  // only when config.qos arms fair_share in closed-loop mode. Tenant t may
  // hold at most tenant_window_ of the queue_depth simulated slots, so one
  // flooding tenant cannot occupy the whole submission window.
  std::vector<MinHeap> tenant_slots_;
  SimTime barrier_gate_ = 0;
  SimTime all_done_gate_ = 0;
  SimTime last_issue_ = 0;
  SimTime makespan_ = 0;
};

}  // namespace af::sim
