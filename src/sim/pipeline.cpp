#include "sim/pipeline.h"

#include <algorithm>

#include "common/check.h"
#include "nand/power.h"

namespace af::sim {

namespace {

std::uint32_t fair_window(const ssd::SsdConfig& config) {
  const ssd::SsdConfig::QosPolicy& qos = config.qos;
  if (!qos.enabled() || !qos.fair_share) return 1;
  return std::max<std::uint32_t>(
      1, std::max<std::uint32_t>(1, config.pipeline.queue_depth) /
             qos.tenants);
}

}  // namespace

SsdPipeline::SsdPipeline(const ssd::SsdConfig& config, ftl::SchemeKind kind)
    : queue_depth_(std::max<std::uint32_t>(1, config.pipeline.queue_depth)),
      enabled_(config.pipeline.enabled()),
      open_loop_(config.pipeline.open_loop),
      tenant_window_(fair_window(config)),
      device_(config, kind),
      locks_(std::uint64_t{std::max<std::uint32_t>(
                 1, config.pipeline.region_pages)} *
                 config.geometry.sectors_per_page(),
             enabled_ ? config.logical_sectors() : 0) {
  const ssd::SsdConfig::QosPolicy& qos = config.qos;
  if (enabled_ && !open_loop_ && qos.enabled() && qos.fair_share) {
    tenant_slots_.resize(qos.tenants);
  }
}

void SsdPipeline::age(double used_fraction, double live_fraction,
                      std::uint64_t seed) {
  device_.age(used_fraction, live_fraction, seed);
}

void SsdPipeline::reset_measurement() {
  device_.reset_measurement();
  records_.clear();
  verified_sectors_ = 0;
  lost_requests_ = 0;
  slots_ = {};
  for (auto& heap : tenant_slots_) heap = {};
  locks_.clear_gates();
  barrier_gate_ = 0;
  all_done_gate_ = 0;
  last_issue_ = 0;
  makespan_ = 0;
}

void SsdPipeline::submit(const ftl::IoRequest& req) {
  if (crashed_) throw nand::PowerLoss{crash_op_};
  CompletionRecord& rec = records_.emplace_back();
  ftl::IoRequest io = req;
  capture_pre_stamps(io);
  Ssd::Completion c;
  try {
    c = enabled_ ? device_stage(io) : submit_inline(io);
  } catch (const nand::PowerLoss& loss) {
    on_power_loss(io, loss.op_index);
    throw;
  }
  rec.submitted = io.arrival;
  rec.done = c.done;
  rec.queue_delay = open_loop_ ? io.arrival - req.arrival : 0;
  rec.cls = c.cls;
  rec.accepted = c.accepted;
  rec.data_lost = c.data_lost;
  rec.executed = true;
  if (c.data_lost) ++lost_requests_;
  makespan_ = std::max(makespan_, c.done);
  if (enabled_) {
    verify(io);
  } else {
    // Inline reads were verified inside Ssd::submit(); mirror the count so
    // the accessor means the same thing at every queue depth.
    verified_sectors_ = device_.verified_sectors();
  }
}

Ssd::Completion SsdPipeline::submit_inline(ftl::IoRequest& io) {
  // QD=1 closed loop: issue when the previous request completed. No range
  // or slot gates are needed — everything serializes behind all_done_gate_.
  io.arrival = std::max(last_issue_, all_done_gate_);
  const Ssd::Completion c = device_.submit(io);
  last_issue_ = io.arrival;
  all_done_gate_ = std::max(all_done_gate_, c.done);
  return c;
}

void SsdPipeline::flush() {
  if (crashed_) throw nand::PowerLoss{crash_op_};
}

void SsdPipeline::drain() { flush(); }

SsdPipeline::MinHeap& SsdPipeline::tenant_heap(std::uint16_t tenant) {
  return tenant_slots_[std::min<std::size_t>(tenant,
                                             tenant_slots_.size() - 1)];
}

void SsdPipeline::capture_pre_stamps(const ftl::IoRequest& io) {
  // Only the crash harness pays for this: with an armed power cut, the
  // interrupted write's sectors may legitimately read back as either
  // version after the mount, so their pre-submission stamps are kept.
  if (!io.write || io.trim) return;
  if (device_.oracle() == nullptr) return;
  if (!device_.engine().array().power_cut_armed()) return;
  crash_pre_stamps_.clear();
  for (SectorAddr s = io.range.begin; s < io.range.end; ++s) {
    crash_pre_stamps_.push_back(device_.oracle()->expected(s));
  }
}

Ssd::Completion SsdPipeline::device_stage(ftl::IoRequest& io) {
  // Dependency gate: barriers wait for every issued request; everything
  // waits for barriers. Otherwise reads order after the last overlapping
  // write, writes after every overlapping access.
  const bool barrier = io.trim;
  ssd::RangeLockTable::Span regions;
  SimTime dependency = barrier_gate_;
  if (barrier) {
    locks_.acquire_barrier();
    dependency = std::max(dependency, all_done_gate_);
  } else {
    regions = locks_.span(io.range);
    dependency = std::max(dependency, locks_.acquire(regions, io.write));
  }
  if (open_loop_) {
    // Open-loop arrivals: the trace timestamp is the submission instant;
    // only dependency ordering can push the issue later. No slot gate, no
    // issue chaining — the simulated schedule is queue_depth-independent.
    io.arrival = std::max(io.arrival, dependency);
  } else {
    // Slot gate: with queue_depth simulated requests outstanding, the next
    // one issues when the earliest of them completes.
    SimTime slot_gate = 0;
    if (slots_.size() >= queue_depth_) {
      slot_gate = slots_.top();
      slots_.pop();
    }
    // Fair-share gate: tenant t additionally waits for its own oldest
    // completion once it holds tenant_window_ slots, capping the share of
    // the submission window a flooding tenant can occupy.
    if (!tenant_slots_.empty()) {
      MinHeap& mine = tenant_heap(io.tenant);
      if (mine.size() >= tenant_window_) {
        slot_gate = std::max(slot_gate, mine.top());
        mine.pop();
      }
    }
    io.arrival = std::max({last_issue_, slot_gate, dependency});
  }
  const Ssd::Completion c = device_.submit_deferred(io, &plan_);
  last_issue_ = io.arrival;
  const SimTime done = c.done;
  all_done_gate_ = std::max(all_done_gate_, done);
  if (barrier) {
    // Every region gate is now at or before barrier_gate_, so max() ignores
    // them without clearing; the slot heaps do need resetting.
    barrier_gate_ = std::max(barrier_gate_, done);
    slots_ = {};  // everything older has logically completed
    for (auto& heap : tenant_slots_) heap = {};
  } else {
    locks_.complete(regions, io.write, done);
  }
  if (!open_loop_) {
    slots_.push(done);
    if (!tenant_slots_.empty()) tenant_heap(io.tenant).push(done);
  }
  return c;
}

void SsdPipeline::verify(const ftl::IoRequest& io) {
  const ssd::Oracle* oracle = device_.oracle();
  if (io.write || io.trim || oracle == nullptr) return;
  for (const auto& obs : plan_.observed) {
    AF_CHECK_MSG(obs.stamp == oracle->expected(obs.sector),
                 "pipeline oracle mismatch: read returned stale or wrong "
                 "data (completion-order violation)");
  }
  AF_CHECK_MSG(plan_.observed.size() == io.range.size(),
               "pipeline read plan did not cover the whole request");
  verified_sectors_ += plan_.observed.size();
}

void SsdPipeline::on_power_loss(const ftl::IoRequest& io,
                                std::uint64_t op_index) {
  crashed_ = true;
  crash_op_ = op_index;
  if (io.write && !io.trim) {
    crash_inflight_ = io.range;
  } else {
    crash_pre_stamps_.clear();  // the capture of an earlier, completed write
  }
}

}  // namespace af::sim
