// In-memory span trace of one benchmark run, and its summarizer.
//
// The benchmark opens a span around each call it makes into a layer's public
// functions (trace generation, device construction, aging, every submit,
// the pipeline drain). Spans carry a name, host start/end, the span that
// caused them and the request id; a submit span also carries the causes seen
// during the call (GC ran, a checkpoint entry was written, the mapping cache
// missed), read from the public counters before and after it. Spans stay in
// memory until the run ends, then are written as one TSV file, which
// `perfbench summarize <file>` reads back.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Bits of Span::causes.
enum Cause : std::uint8_t {
  kCauseGc = 1,       // Engine::gc_runs() advanced during the call
  kCauseCkpt = 2,     // Checkpointer journal_writes advanced
  kCauseCmtMiss = 4,  // MapDirectory misses advanced
};

struct Span {
  static constexpr std::uint32_t kNoParent = UINT32_MAX;
  static constexpr std::uint64_t kNoRequest = UINT64_MAX;

  std::uint32_t name = 0;  // index into SpanRecorder::names()
  std::uint32_t parent = kNoParent;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t request = kNoRequest;
  std::uint8_t causes = 0;
};

class SpanRecorder {
 public:
  /// Interns a span name; the layer is the text before the first '.'.
  [[nodiscard]] std::uint32_t name(const std::string& n);

  /// Opens a span now; returns its id for end() and as a parent.
  [[nodiscard]] std::uint32_t begin(std::uint32_t name,
                                    std::uint32_t parent = Span::kNoParent,
                                    std::uint64_t request = Span::kNoRequest) {
    spans_.push_back({name, parent, now_ns(), 0, request, 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void end(std::uint32_t id, std::uint8_t causes = 0) {
    spans_[id].end_ns = now_ns();
    spans_[id].causes = causes;
  }

  void reserve(std::size_t n) { spans_.reserve(n); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }
  [[nodiscard]] const Span& span(std::uint32_t id) const { return spans_[id]; }

  /// Writes every span as TSV (header line first); false on I/O error.
  [[nodiscard]] bool write(const std::string& path) const;
  /// Reads a file written by write(); false when it is malformed.
  [[nodiscard]] bool read(const std::string& path);

  /// Appends an already-timed span (tests and the file reader).
  void add(const Span& s) { spans_.push_back(s); }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (children clipped to the parent, overlaps
/// counted once). Indexed like `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

struct SpanTotals {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

/// Share of one span name's total time spent in calls that carried a cause.
struct CauseShares {
  std::string name;
  std::uint64_t calls = 0;
  double total_s = 0;
  double gc = 0;
  double ckpt = 0;
  double cmt_miss = 0;
};

struct TraceSummary {
  std::vector<SpanTotals> by_name;   // first-seen order
  std::vector<SpanTotals> by_layer;  // layer = name prefix before '.'
  std::vector<CauseShares> causes;   // names whose spans carried causes
  double root_s = 0;                 // summed duration of parentless spans

  [[nodiscard]] const CauseShares* cause(const std::string& name) const;
};

[[nodiscard]] TraceSummary summarize(const SpanRecorder& rec);
void print_summary(std::FILE* out, const TraceSummary& summary);

}  // namespace perfbench
