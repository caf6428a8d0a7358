#include "spans.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::uint32_t SpanRecorder::name(const std::string& n) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == n) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(n);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id\tname\tparent\tstart_ns\tend_ns\trequest\tcauses\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << names_[s.name] << '\t'
        << (s.parent == Span::kNoParent ? std::string("-")
                                        : std::to_string(s.parent))
        << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
        << (s.request == Span::kNoRequest ? std::string("-")
                                          : std::to_string(s.request))
        << '\t' << static_cast<unsigned>(s.causes) << '\n';
  }
  return static_cast<bool>(out);
}

bool SpanRecorder::read(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return false;
  names_.clear();
  spans_.clear();
  try {
    while (std::getline(in, line)) {
      std::istringstream row(line);
      std::string id, nm, parent, request;
      Span s;
      unsigned causes = 0;
      if (!(row >> id >> nm >> parent >> s.start_ns >> s.end_ns >> request >>
            causes) ||
          std::stoull(id) != spans_.size() || s.end_ns < s.start_ns) {
        return false;
      }
      s.name = name(nm);
      s.parent = parent == "-" ? Span::kNoParent
                               : static_cast<std::uint32_t>(std::stoul(parent));
      s.request = request == "-" ? Span::kNoRequest : std::stoull(request);
      s.causes = static_cast<std::uint8_t>(causes);
      spans_.push_back(s);
    }
  } catch (const std::logic_error&) {  // stoul/stoull: not a number
    return false;
  }
  for (const Span& s : spans_) {
    if (s.parent != Span::kNoParent && s.parent >= spans_.size()) return false;
  }
  return true;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::uint32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != Span::kNoParent) {
      children[spans[i].parent].push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t p = 0; p < spans.size(); ++p) {
    const Span& parent = spans[p];
    iv.clear();
    for (std::uint32_t c : children[p]) {
      const std::int64_t b = std::max(spans[c].start_ns, parent.start_ns);
      const std::int64_t e = std::min(spans[c].end_ns, parent.end_ns);
      if (b < e) iv.emplace_back(b, e);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = parent.start_ns;
    for (const auto& [b, e] : iv) {
      const std::int64_t from = std::max(b, reach);
      if (e > from) covered += e - from;
      reach = std::max(reach, e);
    }
    self[p] = (parent.end_ns - parent.start_ns) - covered;
  }
  return self;
}

namespace {

SpanTotals& totals_for(std::vector<SpanTotals>& v, const std::string& name) {
  for (SpanTotals& t : v) {
    if (t.name == name) return t;
  }
  v.push_back({name, 0, 0, 0});
  return v.back();
}

}  // namespace

const CauseShares* TraceSummary::cause(const std::string& name) const {
  for (const CauseShares& c : causes) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TraceSummary summarize(const SpanRecorder& rec) {
  const std::vector<Span>& spans = rec.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  TraceSummary out;
  // Names whose spans ever carry a cause get a cause-share row.
  std::vector<bool> has_causes(rec.names().size(), false);
  for (const Span& s : spans) {
    if (s.causes != 0) has_causes[s.name] = true;
  }
  std::vector<std::array<double, 4>> cause_s(rec.names().size());
  std::vector<std::uint64_t> cause_calls(rec.names().size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string& nm = rec.names()[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    const double own = static_cast<double>(self[i]) / 1e9;
    SpanTotals& t = totals_for(out.by_name, nm);
    ++t.count;
    t.total_s += dur;
    t.self_s += own;
    SpanTotals& l = totals_for(out.by_layer, nm.substr(0, nm.find('.')));
    ++l.count;
    l.total_s += dur;
    l.self_s += own;
    if (s.parent == Span::kNoParent) out.root_s += dur;
    if (has_causes[s.name]) {
      auto& c = cause_s[s.name];
      ++cause_calls[s.name];
      c[0] += dur;
      if (s.causes & kCauseGc) c[1] += dur;
      if (s.causes & kCauseCkpt) c[2] += dur;
      if (s.causes & kCauseCmtMiss) c[3] += dur;
    }
  }
  for (std::size_t n = 0; n < rec.names().size(); ++n) {
    if (!has_causes[n]) continue;
    const auto& c = cause_s[n];
    const double total = c[0] > 0 ? c[0] : 1;
    out.causes.push_back({rec.names()[n], cause_calls[n], c[0], c[1] / total,
                          c[2] / total, c[3] / total});
  }
  return out;
}

void print_summary(std::FILE* out, const TraceSummary& summary) {
  const double root = summary.root_s > 0 ? summary.root_s : 1;
  std::fprintf(out, "  %-22s %10s %12s %12s %8s\n", "layer", "spans",
               "total s", "self s", "self %");
  for (const SpanTotals& t : summary.by_layer) {
    std::fprintf(out, "  %-22s %10llu %12.6f %12.6f %7.2f%%\n", t.name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_s, t.self_s,
                 100 * t.self_s / root);
  }
  std::fprintf(out, "  %-22s %10s %12s %12s %8s\n", "span", "count",
               "total s", "self s", "self %");
  for (const SpanTotals& t : summary.by_name) {
    std::fprintf(out, "  %-22s %10llu %12.6f %12.6f %7.2f%%\n", t.name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_s, t.self_s,
                 100 * t.self_s / root);
  }
  for (const CauseShares& c : summary.causes) {
    std::fprintf(out,
                 "  causes of %s time (%llu calls, %.6f s): gc %.2f%%, "
                 "ckpt %.2f%%, cmt-miss %.2f%%\n",
                 c.name.c_str(), static_cast<unsigned long long>(c.calls),
                 c.total_s, 100 * c.gc, 100 * c.ckpt, 100 * c.cmt_miss);
  }
}

}  // namespace perfbench
