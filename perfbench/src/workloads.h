// The benchmark's workloads and one repetition of a workload: generate the
// seeded trace, build and age the device (§4.1), replay the trace through
// the public facade (sim::Ssd serially, or sim::SsdPipeline at a queue
// depth) and collect per-request simulated latencies plus the public
// counters of every layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ftl/scheme.h"
#include "nand/geometry.h"
#include "spans.h"
#include "ssd/checkpoint.h"
#include "ssd/config.h"
#include "ssd/engine.h"
#include "ssd/range_lock.h"
#include "ssd/stats.h"
#include "trace/characterize.h"

namespace perfbench {

struct Workload {
  std::string name;
  af::ftl::SchemeKind scheme = af::ftl::SchemeKind::kPageFtl;
  std::size_t lun = 0;        // Table-2 row the synthetic profile is tuned to
  std::uint64_t requests = 0;
  std::uint64_t checkpoint_interval = 0;  // 0 = journal off
  std::uint32_t queue_depth = 0;          // 0 = serial open-loop replay
};

/// The workload named `name`, or null.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// Everything one repetition measured.
struct RepResult {
  // Host seconds of each set-up step and of the measured phase.
  double generate_s = 0;
  double construct_s = 0;
  double age_s = 0;
  double reset_s = 0;
  double replay_s = 0;  // submits plus, for the pipeline, the drain
  double drain_s = 0;
  [[nodiscard]] double setup_s() const {
    return generate_s + construct_s + age_s + reset_s;
  }

  // What the run was: printed in the describe block.
  std::string scheme;
  af::nand::Geometry geometry;
  std::uint64_t cmt_capacity_pages = 0;
  std::uint64_t map_pages = 0;
  std::uint64_t map_pages_touched = 0;
  std::uint32_t threads = 1;  // load generator + pipeline workers
  af::trace::TraceStats trace;

  // Per-request simulated samples (ns) and request accounting.
  std::vector<std::uint64_t> read_ns;
  std::vector<std::uint64_t> write_ns;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;  // refused, data lost or deadline exceeded
  std::uint64_t read_sectors = 0;
  std::uint64_t verified_sectors = 0;
  std::uint64_t first_start = 0;  // first arrival (serial) or issue (QD)
  std::uint64_t last_done = 0;
  double io_time_ns = 0;
  // Mean simulated latency of the first and last tenth of the trace: equal
  // within noise when the open loop's backlog does not grow.
  double head_latency_ns = 0;
  double tail_latency_ns = 0;

  // Public counters after the replay.
  af::ssd::DeviceStats stats;
  std::uint64_t gc_runs = 0;
  af::ssd::Engine::GcPerf gc_perf;
  std::uint64_t cmt_hits = 0;
  std::uint64_t cmt_misses = 0;
  std::uint64_t cmt_evictions = 0;
  af::ssd::Checkpointer::Counters ckpt;
  std::uint64_t map_bytes = 0;
  af::ssd::RangeLockTable::Stats locks;

  // Traced repetitions only: host ns of each facade submit call.
  std::vector<std::uint64_t> submit_read_ns;
  std::vector<std::uint64_t> submit_write_ns;
};

/// Runs one repetition. `workers` sets the pipeline's worker count (ignored
/// by serial workloads). With `spans` non-null, every call into a layer is
/// wrapped in a span and the counters are read around each submit.
[[nodiscard]] RepResult run_rep(const Workload& w, std::uint64_t seed,
                                std::uint32_t workers, SpanRecorder* spans);

/// Fingerprint of every simulated number in `r` (latencies, counters).
[[nodiscard]] std::uint64_t sim_fingerprint(const RepResult& r);

}  // namespace perfbench
