// Self-tests of the benchmark's own helpers: exact percentiles, span self
// time and metric-name validation. Run: perfbench/run.py --self-test.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "metrics.h"
#include "spans.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace perfbench;

void test_order_stat() {
  std::vector<std::uint64_t> xs;
  for (std::uint64_t i = 1; i <= 10'000; ++i) xs.push_back(i);
  const OrderStat p50 = order_stat(xs, 1, 2);
  EXPECT(p50.value == 5'000 && p50.rank == 5'000 && p50.beyond == 5'000);
  const OrderStat p999 = order_stat(xs, 999, 1000);
  EXPECT(p999.value == 9'990 && p999.beyond == 10);
  // Nearest rank rounds up: the 99.9th percentile of 10'001 samples is the
  // 9'991st (ceil(9'990.999)).
  xs.push_back(10'001);
  EXPECT(order_stat(xs, 999, 1000).rank == 9'991);
  EXPECT(order_stat(xs, 1, 1).value == 10'001);  // p100 = max
  EXPECT(order_stat({}, 1, 2).samples == 0);
  EXPECT(order_stat({7}, 999, 1000).value == 7);
}

void test_distribution() {
  std::vector<std::uint64_t> xs;
  for (std::uint64_t i = 0; i < 20'000; ++i) xs.push_back((i * 7919) % 20'000);
  const Distribution d = distribution(xs);
  EXPECT(d.min == 0 && d.max == 19'999);
  EXPECT(d.p50.value == 9'999);
  EXPECT(d.p999.value == 19'979 && d.p999.beyond == 20);
  EXPECT(d.valid());
  // Too few samples to support p999 with ten beyond it.
  std::vector<std::uint64_t> small(5'000, 3);
  EXPECT(!distribution(small).valid());
  EXPECT(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5);
}

void test_self_time() {
  SpanRecorder rec;
  const std::uint32_t root = rec.name("bench.replay");
  const std::uint32_t child = rec.name("sim.submit");
  rec.add({root, Span::kNoParent, 0, 100, Span::kNoRequest, 0});
  rec.add({child, 0, 10, 30, 0, kCauseGc});
  rec.add({child, 0, 25, 40, 1, 0});                  // overlaps the first
  rec.add({child, 0, 90, 120, 2, kCauseCkpt});        // clipped at 100
  rec.add({child, Span::kNoParent, 200, 210, 3, 0});  // another root
  rec.add({child, 0, 12, 20, 4, 0});                  // inside the first
  const std::vector<std::int64_t> self = self_times(rec.spans());
  EXPECT(self[0] == 100 - (30 + 10));  // covered: [10,40) and [90,100)
  EXPECT(self[1] == 20 && self[3] == 30);

  const TraceSummary s = summarize(rec);
  EXPECT(s.by_layer.size() == 2 && s.by_layer[0].name == "bench");
  EXPECT(s.root_s * 1e9 > 109.9 && s.root_s * 1e9 < 110.1);
  const CauseShares* c = s.cause("sim.submit");
  EXPECT(c != nullptr && c->calls == 5);
  // 83 ns of submit time, 20 of it in a GC call and 30 in a checkpoint call.
  EXPECT(c && c->gc > 0.2409 && c->gc < 0.2410);
  EXPECT(c && c->ckpt > 0.3614 && c->ckpt < 0.3615 && c->cmt_miss == 0);
}

void test_span_file_round_trip() {
  SpanRecorder rec;
  const std::uint32_t a = rec.begin(rec.name("bench.setup"));
  const std::uint32_t b = rec.begin(rec.name("trace.generate"), a, 5);
  rec.end(b, kCauseCmtMiss);
  rec.end(a);
  const std::string path = "perfbench_selftest.spans.tsv";
  EXPECT(rec.write(path));
  SpanRecorder back;
  EXPECT(back.read(path));
  EXPECT(back.spans().size() == 2 && back.names() == rec.names());
  EXPECT(back.spans()[1].parent == a && back.spans()[1].request == 5 &&
         back.spans()[1].causes == kCauseCmtMiss);
  EXPECT(back.spans()[0].end_ns == rec.spans()[0].end_ns);

  // Malformed files are rejected, not half-read.
  for (const char* body :
       {"0\tx\t-\t5\t3\t-\t0\n",       // ends before it starts
        "0\tx\tabc\t1\t3\t-\t0\n",     // parent is not a number
        "0\tx\t7\t1\t3\t-\t0\n",       // parent out of range
        "1\tx\t-\t1\t3\t-\t0\n"}) {    // ids out of order
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fprintf(f, "header\n%s", body);
    std::fclose(f);
    EXPECT(!back.read(path));
  }
  std::remove(path.c_str());
}

void test_metric_names() {
  EXPECT(valid_metric_name("sim_read_p999_ms"));
  EXPECT(valid_metric_name("flash.op_ms.data-read"));
  EXPECT(valid_metric_name("9lives"));
  EXPECT(!valid_metric_name(""));
  EXPECT(!valid_metric_name("_leading"));
  EXPECT(!valid_metric_name(".leading"));
  EXPECT(!valid_metric_name("has space"));
  EXPECT(!valid_metric_name("slash/name"));
  EXPECT(!valid_metric_name(std::string(65, 'a')));
  EXPECT(valid_metric_name(std::string(64, 'a')));
  EXPECT(valid_unit("req/s") && valid_unit("%") && valid_unit("1/kreq"));
  EXPECT(!valid_unit("") && !valid_unit("req per s") &&
         !valid_unit(std::string(17, 'u')));

  Metrics m;
  m.set("b", 0.1, "s");
  m.set("a", 2, "count");
  m.set("b", 1.5, "ms");  // overwrite keeps the first position
  EXPECT(m.json() ==
         "{\"b\": {\"value\": 1.5, \"unit\": \"ms\"}, "
         "\"a\": {\"value\": 2, \"unit\": \"count\"}}");
  EXPECT(result_line(true, 3, 0, Metrics{}) ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
         "\"metrics\": {}}");
}

void test_fingerprint() {
  Fingerprint a, b, c;
  a.add(std::uint64_t{1});
  a.add(0.5);
  b.add(std::uint64_t{1});
  b.add(0.5);
  c.add(std::uint64_t{1});
  c.add(0.5000000000000001);
  EXPECT(a.value() == b.value());
  EXPECT(a.value() != c.value());
}

}  // namespace

int main() {
  test_order_stat();
  test_distribution();
  test_self_time();
  test_span_file_round_trip();
  test_metric_names();
  test_fingerprint();
  if (failures) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all passed\n");
  return 0;
}
