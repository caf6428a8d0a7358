// perfbench — the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-dir <dir>]
//   perfbench summarize <spans.tsv>
//
// One run repeats the workload (fresh trace, fresh aged device each time)
// until --seconds have been measured, and reports host metrics as medians
// over the repetitions. --trace 0 pools the simulated results of distinct
// sub-seeds and prints the end-to-end metrics; --trace 1 alternates untraced
// and traced repetitions and prints the per-layer metrics plus the tracing
// overhead. Re-runs must reproduce their simulated numbers bit for bit. The
// last stdout line is the JSON result.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "metrics.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_dir = ".bench_build/spans";
};

// An untraced run pools this many independent replays (sub-seeds of
// --seed): tails driven by rare GC bursts vary from trace to trace, and the
// pool steadies them. Every further repetition re-runs a sub-seed and must
// reproduce its simulated numbers bit for bit.
constexpr std::uint64_t kSubSeeds = 4;
constexpr std::size_t kMinTracedReps = 2;
constexpr std::uint64_t kMaxReps = 1000;
// One pipeline worker: with the load generator, two threads in total.
constexpr std::uint32_t kWorkers = 1;

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  return seed * kSubSeeds + k;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }
double as_d(std::uint64_t v) { return static_cast<double>(v); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Simulated totals pooled over a run's distinct replays.
struct Pool {
  std::vector<std::uint64_t> read_ns;
  std::vector<std::uint64_t> write_ns;
  std::uint64_t replays = 0;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t flash_ops = 0;
  std::uint64_t erases = 0;
  double span_ns = 0;     // summed (last completion - first arrival/issue)
  double io_time_ns = 0;  // summed request latencies
  double head_ns = 0;     // mean latency of each trace's first tenth
  double tail_ns = 0;     // ... and of its last tenth

  void add(const RepResult& r, std::uint64_t replays_expected) {
    if (read_ns.empty()) {
      // Sized once so pool growth does not put reallocation peaks into
      // peak_rss_mb.
      read_ns.reserve(replays_expected * r.requests);
      write_ns.reserve(replays_expected * r.requests);
    }
    read_ns.insert(read_ns.end(), r.read_ns.begin(), r.read_ns.end());
    write_ns.insert(write_ns.end(), r.write_ns.begin(), r.write_ns.end());
    ++replays;
    requests += r.requests;
    failed += r.failed;
    flash_ops += r.stats.flash_reads() + r.stats.flash_writes();
    erases += r.stats.erases();
    span_ns += as_d(r.last_done - r.first_start);
    io_time_ns += r.io_time_ns;
    head_ns += r.head_latency_ns;
    tail_ns += r.tail_latency_ns;
  }
};

double mean(const std::vector<std::uint64_t>& xs) {
  double sum = 0;
  for (std::uint64_t x : xs) sum += as_d(x);
  return ratio(sum, as_d(xs.size()));
}

/// End-to-end metrics: host ones are medians over the run's untraced
/// repetitions, simulated ones come from the pool.
Metrics end_to_end(const Pool& p, const Distribution& rd,
                   const Distribution& wd, std::vector<double> replay_rate,
                   std::vector<double> setup) {
  Metrics m;
  const double req = as_d(p.requests);
  m.set("replay_req_per_s", median(std::move(replay_rate)), "req/s");
  m.set("setup_s", median(std::move(setup)), "s");
  m.set("peak_rss_mb", peak_rss_mb(), "MiB");
  m.set("sim_read_mean_ms", mean(p.read_ns) / 1e6, "ms");
  m.set("sim_read_p999_ms", as_d(rd.p999.value) / 1e6, "ms");
  m.set("sim_write_mean_ms", mean(p.write_ns) / 1e6, "ms");
  m.set("sim_write_p999_ms", as_d(wd.p999.value) / 1e6, "ms");
  m.set("sim_req_per_s", ratio(as_d(p.requests - p.failed), p.span_ns / 1e9),
        "req/s");
  m.set("sim_io_time_s", ratio(p.io_time_ns / 1e9, as_d(p.replays)), "s");
  m.set("flash_ops_per_req", ratio(as_d(p.flash_ops), req), "ops/req");
  m.set("erases_per_kreq", 1000 * ratio(as_d(p.erases), req), "erases/kreq");
  return m;
}

double self_s(const TraceSummary& s, const std::string& layer) {
  for (const SpanTotals& t : s.by_layer) {
    if (t.name == layer) return t.self_s;
  }
  return 0;
}

/// Per-layer metrics of one traced repetition. Layers a workload does not
/// run report 0 (pipeline metrics on serial workloads, submit-call metrics
/// on the pipeline, Across and checkpoint counters elsewhere).
Metrics per_layer(const RepResult& r, const TraceSummary& s) {
  using af::ssd::OpKind;
  Metrics m;
  const double req = as_d(r.requests);
  const double kreq = req / 1000;
  const af::ssd::DeviceStats& st = r.stats;

  m.set("trace.generate_s", r.generate_s, "s");
  m.set("sim.age_s", r.age_s, "s");

  std::vector<std::uint64_t> submit = r.submit_read_ns;
  submit.insert(submit.end(), r.submit_write_ns.begin(),
                r.submit_write_ns.end());
  std::sort(submit.begin(), submit.end());
  m.set("sim.submit_ns.p50", as_d(order_stat(submit, 1, 2).value), "ns");
  m.set("sim.submit_ns.p99", as_d(order_stat(submit, 99, 100).value), "ns");
  m.set("sim.submit_ns.read_mean", mean(r.submit_read_ns), "ns");
  m.set("sim.submit_ns.write_mean", mean(r.submit_write_ns), "ns");
  const CauseShares* causes = s.cause("sim.submit");
  m.set("sim.submit_ns.gc_share", causes ? causes->gc : 0, "fraction");
  m.set("sim.submit_ns.ckpt_share", causes ? causes->ckpt : 0, "fraction");
  m.set("sim.submit_ns.cmt_miss_share", causes ? causes->cmt_miss : 0,
        "fraction");
  m.set("sim.verified_sectors", as_d(r.verified_sectors), "count");

  double wait_s = 0;
  for (const SpanTotals& t : s.by_name) {
    if (t.name == "pipeline.submit") wait_s = ratio(t.total_s, as_d(t.count));
  }
  m.set("pipeline.submit_wait_ns.mean", wait_s * 1e9, "ns");
  m.set("pipeline.drain_s", r.drain_s, "s");
  m.set("pipeline.lock_acquisitions_per_req",
        ratio(as_d(r.locks.acquisitions), req), "1/req");
  m.set("pipeline.region_entries_per_req",
        ratio(as_d(r.locks.region_entries), req), "1/req");

  m.set("ftl.rmw_reads_per_req", ratio(as_d(st.rmw_reads()), req), "1/req");
  const af::ssd::AcrossStats& a = st.across();
  m.set("ftl.across.direct_writes_per_kreq", ratio(as_d(a.direct_writes), kreq),
        "1/kreq");
  m.set("ftl.across.amerge_profitable_per_kreq",
        ratio(as_d(a.profitable_amerge), kreq), "1/kreq");
  m.set("ftl.across.amerge_unprofitable_per_kreq",
        ratio(as_d(a.unprofitable_amerge), kreq), "1/kreq");
  m.set("ftl.across.rollbacks_per_kreq", ratio(as_d(a.rollbacks), kreq),
        "1/kreq");
  m.set("ftl.across.direct_reads_per_kreq", ratio(as_d(a.direct_reads), kreq),
        "1/kreq");
  m.set("ftl.across.merged_reads_per_kreq", ratio(as_d(a.merged_reads), kreq),
        "1/kreq");
  m.set("ftl.map_bytes", as_d(st.peak_map_bytes()), "bytes");

  m.set("cmt.hit_ratio", ratio(as_d(r.cmt_hits), as_d(r.cmt_hits + r.cmt_misses)),
        "fraction");
  m.set("cmt.misses_per_req", ratio(as_d(r.cmt_misses), req), "1/req");
  m.set("cmt.evictions_per_req", ratio(as_d(r.cmt_evictions), req), "1/req");
  m.set("flash.map_reads_per_req", ratio(as_d(st.flash_ops(OpKind::kMapRead)), req),
        "1/req");
  m.set("flash.map_writes_per_req",
        ratio(as_d(st.flash_ops(OpKind::kMapWrite)), req), "1/req");

  m.set("gc.runs_per_kreq", ratio(as_d(r.gc_runs), kreq), "1/kreq");
  m.set("gc.page_moves_per_erase",
        ratio(as_d(st.flash_ops(OpKind::kGcWrite)), as_d(st.erases())),
        "1/erase");
  m.set("gc.heap_ops_per_pick",
        ratio(as_d(r.gc_perf.heap_pops + r.gc_perf.heap_pushes),
              as_d(r.gc_perf.victim_picks)),
        "1/pick");
  m.set("engine.waf",
        ratio(as_d(st.flash_writes()), as_d(st.flash_ops(OpKind::kDataWrite))),
        "ratio");

  m.set("ckpt.entries_per_kreq", ratio(as_d(r.ckpt.journal_writes), kreq),
        "1/kreq");
  m.set("ckpt.snapshots", as_d(r.ckpt.snapshots), "count");
  m.set("ckpt.pages_per_kreq", ratio(as_d(r.ckpt.pages_written), kreq),
        "1/kreq");

  m.set("flash.data_reads_per_req",
        ratio(as_d(st.flash_ops(OpKind::kDataRead)), req), "1/req");
  m.set("flash.data_writes_per_req",
        ratio(as_d(st.flash_ops(OpKind::kDataWrite)), req), "1/req");
  m.set("flash.gc_reads_per_req", ratio(as_d(st.flash_ops(OpKind::kGcRead)), req),
        "1/req");
  m.set("flash.gc_writes_per_req",
        ratio(as_d(st.flash_ops(OpKind::kGcWrite)), req), "1/req");
  // Mean simulated service time per op kind: histogram sum / count, never a
  // bucket percentile.
  for (OpKind k : {OpKind::kDataRead, OpKind::kDataWrite, OpKind::kMapRead,
                   OpKind::kMapWrite, OpKind::kGcRead, OpKind::kGcWrite,
                   OpKind::kCkptWrite}) {
    m.set(std::string("flash.op_ms.") + af::ssd::to_string(k),
          st.op_latency(k).mean() / 1e6, "ms");
  }
  m.set("host_ns_per_flash_op",
        ratio(r.replay_s * 1e9, as_d(st.flash_reads() + st.flash_writes())),
        "ns");
  m.set("bench.traced_replay_req_per_s", ratio(req, r.replay_s), "req/s");
  for (const char* layer : {"bench", "trace", "sim", "pipeline"}) {
    m.set(std::string("layer.") + layer + ".self_s", self_s(s, layer), "s");
  }
  return m;
}

/// Per-name median over repetitions (all carry the same names).
Metrics median_of(const std::vector<Metrics>& runs) {
  Metrics out;
  for (const Metrics::Entry& e : runs.front().entries()) {
    std::vector<double> xs;
    for (const Metrics& m : runs) xs.push_back(m.find(e.name)->value);
    out.set(e.name, median(xs), e.unit);
  }
  return out;
}

void print_describe(const Workload& w, std::uint64_t seed, const RepResult& r) {
  const auto& g = r.geometry;
  std::printf("describe:\n");
  std::printf("  workload %s: scheme %s, lun%zu profile, %s, seed %" PRIu64
              "\n",
              w.name.c_str(), r.scheme.c_str(), w.lun + 1,
              w.queue_depth ? "closed-loop pipeline" : "serial open-loop",
              seed);
  std::printf("  geometry: %u ch x %u chips x %u dies x %u planes x %u blocks"
              " x %u pages x %u B = %" PRIu64 " pages (%.1f MiB), aged to "
              "90%% used / 39.8%% live\n",
              g.channels, g.chips_per_channel, g.dies_per_chip,
              g.planes_per_die, g.blocks_per_plane, g.pages_per_block,
              g.page_bytes, g.total_pages(),
              as_d(g.capacity_bytes()) / (1 << 20));
  std::printf("  CMT: %" PRIu64 " of %" PRIu64
              " translation pages cacheable -> map %s; %" PRIu64
              " pages touched -> touched set %s\n",
              r.cmt_capacity_pages, r.map_pages,
              r.cmt_capacity_pages >= r.map_pages ? "fits" : "overflows",
              r.map_pages_touched,
              r.cmt_capacity_pages >= r.map_pages_touched ? "fits"
                                                          : "overflows");
  std::printf("  scheme map_bytes: %" PRIu64 " (peak %" PRIu64 ")\n",
              r.map_bytes, r.stats.peak_map_bytes());
  std::printf("  requests: %" PRIu64 " (writes %.1f%%, across-page %.1f%%),"
              " threads: %u, queue depth %u, checkpoint interval %" PRIu64
              " writes (0 = off)\n",
              r.requests, 100 * r.trace.write_ratio, 100 * r.trace.across_ratio,
              r.threads, w.queue_depth, w.checkpoint_interval);
  if (w.queue_depth == 0) {
    std::printf("  arrivals: trace timestamps (latency includes backlog; "
                "generator lateness 0 by construction)\n");
  }
}

void print_dist(const char* what, const Distribution& d) {
  std::printf("  %s: n=%" PRIu64 " min=%" PRIu64 " ns p50=%" PRIu64
              " ns (rank %" PRIu64 ", %" PRIu64 " beyond) p999=%" PRIu64
              " ns (rank %" PRIu64 ", %" PRIu64 " beyond) max=%" PRIu64
              " ns -> %s\n",
              what, d.p50.samples, d.min, d.p50.value, d.p50.rank,
              d.p50.beyond, d.p999.value, d.p999.rank, d.p999.beyond, d.max,
              d.valid() ? "ok" : "INVALID");
}

void print_metrics(const char* title, const Metrics& m) {
  std::printf("%s:\n", title);
  for (const Metrics::Entry& e : m.entries()) {
    std::printf("  %-40s %.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
}

int summarize_file(const std::string& path) {
  SpanRecorder rec;
  if (!rec.read(path)) {
    std::fprintf(stderr, "perfbench: cannot read span file %s\n",
                 path.c_str());
    return 1;
  }
  std::printf("spans: %zu from %s\n", rec.spans().size(), path.c_str());
  print_summary(stdout, summarize(rec));
  return 0;
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a->workload = v;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (arg == "--trace") {
      a->trace = std::string(v) == "1";
      if (std::string(v) != "0" && !a->trace) return false;
    } else if (arg == "--spans-dir") {
      a->spans_dir = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !a->workload.empty() && a->seconds > 0;
}

int run(const Args& args) {
  const Workload* found = find_workload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;

  std::printf("== perfbench %s seed %" PRIu64 " seconds %g trace %d ==\n",
              w.name.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  // Untraced runs pool kSubSeeds distinct replays; traced runs replay
  // sub-seed 0 only, alternating untraced and traced repetitions.
  const std::uint64_t distinct = args.trace ? 1 : kSubSeeds;
  Pool pool;
  std::vector<std::uint64_t> fingerprints;  // per sub-seed
  std::vector<double> replay_rate;          // untraced repetitions
  std::vector<double> setup;
  std::vector<Metrics> traced;
  SpanRecorder kept_spans;  // the first traced repetition's spans
  TraceSummary kept_summary;
  bool oracle_ok = true;
  bool deterministic = true;
  std::uint64_t verified = 0;
  std::uint64_t read_sectors = 0;
  std::uint64_t reps = 0;

  auto need_more = [&] {
    if (reps >= kMaxReps) return false;
    if (reps < distinct + 1) return true;  // each sub-seed, then a re-run
    if (args.trace && traced.size() < kMinTracedReps) return true;
    return elapsed() < args.seconds;
  };
  while (need_more()) {
    const std::uint64_t k = reps % distinct;
    const bool traced_rep = args.trace && reps % 2 == 1;
    SpanRecorder spans;
    RepResult r = run_rep(w, sub_seed(args.seed, k), kWorkers,
                          traced_rep ? &spans : nullptr);
    if (reps == 0) {
      print_describe(w, args.seed, r);
      std::printf("repetitions:\n");
    }
    const std::uint64_t f = sim_fingerprint(r);
    const bool fresh = k >= fingerprints.size();
    if (fresh) {
      fingerprints.push_back(f);
      pool.add(r, distinct);
    }
    const bool match = f == fingerprints[k];
    deterministic = deterministic && match;
    oracle_ok = oracle_ok && r.verified_sectors > 0 &&
                r.verified_sectors == r.read_sectors;
    verified += r.verified_sectors;
    read_sectors += r.read_sectors;
    std::printf("  rep %" PRIu64 " (%s, sub-seed %" PRIu64 "): setup %.4f s,"
                " replay %.4f s, fingerprint %016" PRIx64 "%s\n",
                reps + 1, traced_rep ? "traced" : "untraced", k, r.setup_s(),
                r.replay_s, f,
                fresh ? "" : match ? " (re-run matches)" : " MISMATCH");
    if (traced_rep) {
      TraceSummary summary = summarize(spans);
      traced.push_back(per_layer(r, summary));
      if (traced.size() == 1) {
        kept_spans = std::move(spans);
        kept_summary = std::move(summary);
      }
    } else {
      replay_rate.push_back(ratio(as_d(r.requests), r.replay_s));
      setup.push_back(r.setup_s());
    }
    ++reps;
    // Return the repetition's freed heap to the system, so peak_rss_mb is
    // one repetition plus the pool rather than heap fragmentation.
    malloc_trim(0);
  }
  const double measured_s = elapsed();

  // Pipeline determinism contract: the worker count changes host time only.
  if (w.queue_depth > 0) {
    const RepResult r2 = run_rep(w, sub_seed(args.seed, 0), 2, nullptr);
    const std::uint64_t f2 = sim_fingerprint(r2);
    std::printf("  2-worker re-run of sub-seed 0: fingerprint %016" PRIx64
                " %s\n",
                f2, f2 == fingerprints[0] ? "(matches 1 worker)"
                                          : "MISMATCH vs 1 worker");
    deterministic = deterministic && f2 == fingerprints[0];
  }

  const Distribution rd = distribution(pool.read_ns);
  const Distribution wd = distribution(pool.write_ns);
  std::printf("percentiles (exact nearest rank over %" PRIu64
              " pooled replays, simulated ns):\n",
              pool.replays);
  print_dist("read", rd);
  print_dist("write", wd);
  std::printf("checks:\n");
  std::printf("  oracle: %" PRIu64 " of %" PRIu64
              " read sectors verified -> %s\n",
              verified, read_sectors, oracle_ok ? "ok" : "FAILED");
  std::printf("  determinism: %" PRIu64 " repetitions over %" PRIu64
              " sub-seeds -> %s\n",
              reps, distinct, deterministic ? "ok" : "FAILED");
  std::printf("  percentiles: min <= p50 <= p999 <= max, >= 10 beyond p999 "
              "-> %s\n",
              rd.valid() && wd.valid() ? "ok" : "FAILED");
  std::printf("  backlog: mean latency of the first tenth %.3f ms, last "
              "tenth %.3f ms\n",
              pool.head_ns / as_d(pool.replays) / 1e6,
              pool.tail_ns / as_d(pool.replays) / 1e6);
  bool correct = oracle_ok && deterministic && rd.valid() && wd.valid();

  Metrics result;
  if (args.trace) {
    result = median_of(traced);
    const double plain = median(replay_rate);
    const double with = result.find("bench.traced_replay_req_per_s")->value;
    result.set("bench.untraced_replay_req_per_s", plain, "req/s");
    // Tracing overhead: the drop in replay_req_per_s caused by the spans
    // and counter reads, as a percentage of the untraced rate.
    result.set("bench.tracing_overhead_pct", 100 * ratio(plain - with, plain),
               "%");
    std::printf("trace summary (first traced repetition):\n");
    print_summary(stdout, kept_summary);
    print_metrics("per-layer metrics (host: median over traced reps)", result);
  } else {
    result = end_to_end(pool, rd, wd, replay_rate, setup);
    print_metrics("end-to-end metrics (host: median over reps)", result);
  }
  // Printed for the record but not part of the JSON result: on the serial
  // workloads the medians equal the unloaded service time for every seed,
  // and failures are reported as the result's "failed" count.
  std::printf("  %-40s %.6g ms\n", "sim_read_p50_ms", as_d(rd.p50.value) / 1e6);
  std::printf("  %-40s %.6g ms\n", "sim_write_p50_ms",
              as_d(wd.p50.value) / 1e6);
  std::printf("  %-40s %.6g fraction (%" PRIu64 " of %" PRIu64
              " requests refused, lost or past deadline)\n",
              "failed_ratio", ratio(as_d(pool.failed), as_d(pool.requests)),
              pool.failed, pool.requests);
  std::printf("measured %.2f s over %" PRIu64 " repetitions\n", measured_s,
              reps);

  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(args.spans_dir, ec);
    // One file per workload: each traced run replaces the previous one's.
    const std::string path = args.spans_dir + "/" + w.name + ".spans.tsv";
    if (kept_spans.write(path)) {
      std::printf("spans: %zu written to %s\n", kept_spans.spans().size(),
                  path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      correct = false;
    }
  }

  std::printf("%s\n",
              result_line(correct, pool.requests, pool.failed, result).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 3 && std::string(argv[1]) == "summarize") {
    return summarize_file(argv[2]);
  }
  Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-dir <dir>]\n"
                 "       perfbench summarize <spans.tsv>\n");
    return 2;
  }
  return run(args);
}
