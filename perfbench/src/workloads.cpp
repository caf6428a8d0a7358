#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "ftl/request.h"
#include "metrics.h"
#include "sim/pipeline.h"
#include "sim/ssd.h"
#include "trace/profiles.h"
#include "trace/synth.h"

namespace perfbench {

namespace {

using af::ftl::SchemeKind;

// §4.1: the device is aged until 90% of its pages have been used, with
// valid data occupying 39.8% of raw capacity; traces address that region.
constexpr double kAgeUsed = 0.90;
constexpr double kAgeLive = 0.398;
constexpr std::uint32_t kBlocksPerPlane = 32;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

af::ssd::SsdConfig device_config(const Workload& w, std::uint32_t workers) {
  af::ssd::SsdConfig cfg = af::ssd::SsdConfig::paper(8, kBlocksPerPlane);
  cfg.track_payload = true;  // the oracle verifies every read
  cfg.checkpoint.interval_requests = w.checkpoint_interval;
  cfg.pipeline.queue_depth = w.queue_depth;
  cfg.pipeline.workers = workers;
  return cfg;
}

/// Opens a span when tracing; a no-op id otherwise.
class Scope {
 public:
  Scope(SpanRecorder* rec, const char* name, std::uint32_t parent)
      : rec_(rec), id_(rec ? rec->begin(rec->name(name), parent) : 0) {}
  ~Scope() {
    if (rec_) rec_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::uint32_t id_;
};

/// Set-up shared by both replay modes, each step timed and spanned: the
/// trace, then the device built by `make`, aged and reset. Also sizes the
/// per-request buffers so the replay does not grow them.
template <typename Device, typename Make>
std::unique_ptr<Device> set_up(const Workload& w, std::uint64_t seed,
                               const af::ssd::SsdConfig& cfg,
                               SpanRecorder* spans, af::trace::Trace* tr,
                               RepResult* out, Make make) {
  Scope setup(spans, "bench.setup", Span::kNoParent);
  auto t0 = std::chrono::steady_clock::now();
  {
    Scope s(spans, "trace.generate", setup.id());
    af::trace::SynthProfile profile = af::trace::lun_profile(w.lun, w.requests);
    profile.seed = seed;
    const std::uint64_t addressable =
        static_cast<std::uint64_t>(
            kAgeLive * static_cast<double>(cfg.geometry.total_pages())) *
        cfg.geometry.sectors_per_page();
    *tr = af::trace::generate(profile, addressable);
  }
  out->generate_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  std::unique_ptr<Device> dev;
  {
    Scope s(spans, "sim.construct", setup.id());
    dev = make();
  }
  out->construct_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  {
    Scope s(spans, "sim.age", setup.id());
    dev->age(kAgeUsed, kAgeLive, seed);
  }
  out->age_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  {
    Scope s(spans, "sim.reset", setup.id());
    dev->reset_measurement();
  }
  out->reset_s = seconds_since(t0);

  out->read_ns.reserve(tr->size());
  out->write_ns.reserve(tr->size());
  if (spans) spans->reserve(spans->spans().size() + tr->size() + 4);
  return dev;
}

void note_request(const af::trace::Trace& tr, std::size_t i,
                  std::uint64_t latency, std::uint64_t done, RepResult* out) {
  const af::trace::TraceRecord& rec = tr[i];
  const std::size_t tenth = tr.size() / 10;
  if (i < tenth) out->head_latency_ns += static_cast<double>(latency) / tenth;
  if (i >= tr.size() - tenth) {
    out->tail_latency_ns += static_cast<double>(latency) / tenth;
  }
  (rec.write ? out->write_ns : out->read_ns).push_back(latency);
  if (!rec.write) out->read_sectors += rec.sectors;
  out->last_done = std::max(out->last_done, done);
  out->io_time_ns += static_cast<double>(latency);
}

/// Serial completion: a refused, data-losing or deadline-missing request
/// counts as failed.
void note_completion(const af::trace::Trace& tr, std::size_t i,
                     const af::sim::Ssd::Completion& c, RepResult* out) {
  if (!c.accepted || c.data_lost ||
      c.status == af::ssd::Status::kDeadlineExceeded) {
    ++out->failed;
  }
  note_request(tr, i, c.latency, c.done, out);
}

void snapshot(af::sim::Ssd& ssd, RepResult* out) {
  ssd.snapshot_map_footprint();
  out->scheme = ssd.scheme().name();
  out->geometry = ssd.engine().geometry();
  out->stats = ssd.stats();
  out->gc_runs = ssd.engine().gc_runs();
  out->gc_perf = ssd.engine().gc_perf();
  if (const auto* dir = ssd.engine().map_directory()) {
    out->cmt_hits = dir->hits();
    out->cmt_misses = dir->misses();
    out->cmt_evictions = dir->evictions();
    out->cmt_capacity_pages = dir->capacity_pages();
    out->map_pages = dir->num_map_pages();
    out->map_pages_touched = dir->touched_pages();
  }
  if (const auto* ck = ssd.checkpointer()) out->ckpt = ck->counters();
  out->map_bytes = ssd.scheme().map_bytes();
}

af::ftl::IoRequest to_io(const af::trace::TraceRecord& r) {
  return {r.timestamp, r.write, r.range(), r.trim, r.tenant};
}

void replay_serial(af::sim::Ssd& ssd, const af::trace::Trace& tr,
                   SpanRecorder* spans, RepResult* out) {
  const auto t0 = std::chrono::steady_clock::now();
  if (spans == nullptr) {
    for (std::size_t i = 0; i < tr.size(); ++i) {
      note_completion(tr, i, ssd.submit(to_io(tr[i])), out);
    }
  } else {
    Scope replay(spans, "bench.replay", Span::kNoParent);
    const std::uint32_t submit = spans->name("sim.submit");
    const af::ssd::Engine& engine = ssd.engine();
    const af::ssd::MapDirectory* dir = engine.map_directory();
    const af::ssd::Checkpointer* ck = ssd.checkpointer();
    for (std::size_t i = 0; i < tr.size(); ++i) {
      const auto& rec = tr[i];
      const std::uint64_t gc0 = engine.gc_runs();
      const std::uint64_t ck0 = ck ? ck->counters().journal_writes : 0;
      const std::uint64_t miss0 = dir ? dir->misses() : 0;
      const std::uint32_t id = spans->begin(submit, replay.id(), i);
      const auto c = ssd.submit(to_io(rec));
      std::uint8_t causes = 0;
      if (engine.gc_runs() != gc0) causes |= kCauseGc;
      if (ck && ck->counters().journal_writes != ck0) causes |= kCauseCkpt;
      if (dir && dir->misses() != miss0) causes |= kCauseCmtMiss;
      spans->end(id, causes);
      const Span& s = spans->span(id);
      (rec.write ? out->submit_write_ns : out->submit_read_ns)
          .push_back(static_cast<std::uint64_t>(s.end_ns - s.start_ns));
      note_completion(tr, i, c, out);
    }
  }
  ssd.drain_admission();
  out->replay_s = seconds_since(t0);
  out->first_start = tr.empty() ? 0 : tr.front().timestamp;
  out->verified_sectors = ssd.verified_sectors();
  snapshot(ssd, out);
}

void replay_pipeline(af::sim::SsdPipeline& pipe, const af::trace::Trace& tr,
                     SpanRecorder* spans, RepResult* out) {
  const auto t0 = std::chrono::steady_clock::now();
  {
    Scope replay(spans, "bench.replay", Span::kNoParent);
    if (spans == nullptr) {
      for (const auto& rec : tr) pipe.submit(to_io(rec));
    } else {
      // Device counters are owned by the workers while requests are in
      // flight, so pipeline submit spans carry no causes.
      const std::uint32_t submit = spans->name("pipeline.submit");
      for (std::size_t i = 0; i < tr.size(); ++i) {
        const std::uint32_t id = spans->begin(submit, replay.id(), i);
        pipe.submit(to_io(tr[i]));
        spans->end(id);
      }
    }
    const auto d0 = std::chrono::steady_clock::now();
    Scope drain(spans, "pipeline.drain", replay.id());
    pipe.drain();
    out->drain_s = seconds_since(d0);
  }
  out->replay_s = seconds_since(t0);

  const auto& records = pipe.records();
  out->first_start = UINT64_MAX;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    if (!r.executed || !r.accepted || r.data_lost) ++out->failed;
    out->first_start = std::min<std::uint64_t>(out->first_start, r.submitted);
    note_request(tr, i, r.done - r.submitted, r.done, out);
  }
  if (records.empty()) out->first_start = 0;
  out->verified_sectors = pipe.verified_sectors();
  out->locks = pipe.lock_stats();
  out->threads = 1 + pipe.workers();
  snapshot(pipe.device(), out);
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  static const std::vector<Workload> kWorkloads = {
      {"vdi-across", SchemeKind::kAcrossFtl, 0, 400'000, 0, 0},
      {"vdi-mrsm-ckpt", SchemeKind::kMrsm, 0, 200'000, 64, 0},
      {"readmostly-ftl-qd16", SchemeKind::kPageFtl, 5, 200'000, 0, 16},
  };
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

RepResult run_rep(const Workload& w, std::uint64_t seed, std::uint32_t workers,
                  SpanRecorder* spans) {
  RepResult out;
  af::trace::Trace tr;
  const af::ssd::SsdConfig cfg = device_config(w, workers);
  if (w.queue_depth == 0) {
    auto ssd = set_up<af::sim::Ssd>(w, seed, cfg, spans, &tr, &out, [&] {
      return std::make_unique<af::sim::Ssd>(cfg, w.scheme);
    });
    replay_serial(*ssd, tr, spans, &out);
  } else {
    auto pipe = set_up<af::sim::SsdPipeline>(w, seed, cfg, spans, &tr, &out, [&] {
      return std::make_unique<af::sim::SsdPipeline>(cfg, w.scheme);
    });
    replay_pipeline(*pipe, tr, spans, &out);
  }
  out.requests = tr.size();
  out.trace = af::trace::characterize(tr, out.geometry.sectors_per_page());
  return out;
}

std::uint64_t sim_fingerprint(const RepResult& r) {
  Fingerprint f;
  f.add(r.read_ns);
  f.add(r.write_ns);
  for (std::uint64_t v :
       {r.requests, r.failed, r.read_sectors, r.verified_sectors,
        r.first_start, r.last_done, r.gc_runs, r.cmt_hits, r.cmt_misses,
        r.cmt_evictions, r.map_bytes, r.stats.erases(),
        r.stats.dram_accesses(), r.stats.rmw_reads(),
        r.stats.peak_map_bytes(), r.gc_perf.victim_picks,
        r.gc_perf.heap_pops, r.gc_perf.heap_pushes, r.gc_perf.heap_rebuilds,
        r.ckpt.journal_writes, r.ckpt.snapshots, r.ckpt.deltas,
        r.ckpt.pages_written, r.ckpt.deferred}) {
    f.add(v);
  }
  f.add(r.io_time_ns);
  for (std::size_t k = 0; k < static_cast<std::size_t>(af::ssd::OpKind::kKindCount);
       ++k) {
    const auto kind = static_cast<af::ssd::OpKind>(k);
    f.add(r.stats.flash_ops(kind));
    f.add(r.stats.op_latency(kind).count());
    f.add(r.stats.op_latency(kind).mean());
  }
  const af::ssd::AcrossStats& a = r.stats.across();
  for (std::uint64_t v :
       {a.direct_writes, a.profitable_amerge, a.unprofitable_amerge,
        a.rollbacks, a.area_shrinks, a.direct_reads, a.merged_reads,
        a.merged_read_flash_reads, a.areas_created, a.peak_live_areas,
        a.bypassed_writes, a.pressure_evictions}) {
    f.add(v);
  }
  return f.value();
}

}  // namespace perfbench
