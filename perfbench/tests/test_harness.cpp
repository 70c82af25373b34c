// Unit tests for the perfbench statistics and span aggregation. Plain
// checks that stay on in every build type; exit status 1 on a failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench.hpp"

namespace {

int g_failures = 0;

// Variadic so that braced keys ({"layer", "name"}) pass through.
#define EXPECT(...)                                                   \
  do {                                                                \
    if (!(__VA_ARGS__)) {                                             \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #__VA_ARGS__);                                     \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_median_and_mean() {
  EXPECT(near(perfbench::median({3, 1, 2}), 2));
  EXPECT(near(perfbench::median({4, 1, 3, 2}), 2.5));
  EXPECT(near(perfbench::median({}), 0));
  EXPECT(near(perfbench::mean({1, 2, 3, 6}), 3));
}

void test_tail_supported() {
  // 1000 samples: p99 = rank 990 leaves exactly 10 beyond it.
  perfbench::Tail t = perfbench::tail(iota(1000), 0.99);
  EXPECT(near(t.value, 990));
  EXPECT(near(t.pct, 99));
  EXPECT(t.n == 1000);
  // p95 of 400: rank 380, 20 beyond.
  t = perfbench::tail(iota(400), 0.95);
  EXPECT(near(t.value, 380));
}

void test_tail_backs_off() {
  // 600 samples cannot support p99 (6 beyond): the highest percentile
  // with 10 beyond is rank 590, p98.3.
  perfbench::Tail t = perfbench::tail(iota(600), 0.99);
  EXPECT(near(t.value, 590));
  EXPECT(std::fabs(t.pct - 98.333) < 0.01);
  // 30 samples: p95 backs off to rank 20.
  t = perfbench::tail(iota(30), 0.95);
  EXPECT(near(t.value, 20));
  EXPECT(t.pct < 95);
}

void test_tail_small_sample_is_max() {
  perfbench::Tail t = perfbench::tail({5, 1, 9, 3}, 0.95);
  EXPECT(near(t.value, 9));
  EXPECT(near(t.pct, 100));
  EXPECT(perfbench::describe(t) == "max of 4");
  // 21 samples: the only rank with 10 beyond it is the median itself.
  t = perfbench::tail(iota(21), 0.95);
  EXPECT(near(t.value, 21) && near(t.pct, 100));
  // 22 samples: rank 12 lies above the median.
  t = perfbench::tail(iota(22), 0.95);
  EXPECT(near(t.value, 12));
  t = perfbench::tail({}, 0.5);
  EXPECT(t.n == 0 && near(t.value, 0));
}

perfbench::Span span(const char* layer, const char* name, int lane,
                     uint64_t start_ms, uint64_t end_ms) {
  return perfbench::Span{layer, name, lane, start_ms * 1000000,
                         end_ms * 1000000};
}

void test_self_time() {
  // Lane 0: setup [0,10) holds parse [1,3) and build [4,9); build holds
  // a nested [5,6). Lane 1 overlaps in time but is never a child.
  std::vector<perfbench::Span> spans = {
      span("bench", "setup", 0, 0, 10), span("xml", "parse", 0, 1, 3),
      span("hinch", "build", 0, 4, 9),  span("hinch", "inner", 0, 5, 6),
      span("xml", "parse", 1, 2, 8)};
  auto totals = perfbench::aggregate(spans);
  EXPECT(near(totals[{"bench", "setup"}].total_ms, 10));
  EXPECT(near(totals[{"bench", "setup"}].self_ms, 3));
  EXPECT(near(totals[{"hinch", "build"}].self_ms, 4));
  EXPECT(near(totals[{"hinch", "inner"}].self_ms, 1));
  EXPECT(totals[{"xml", "parse"}].count == 2);
  EXPECT(near(totals[{"xml", "parse"}].self_ms, 8));
  // Adjacent, not nested: [0,2) then [2,4) on one lane.
  auto flat = perfbench::aggregate(
      {span("a", "x", 0, 0, 2), span("a", "y", 0, 2, 4)});
  EXPECT(near(flat[{"a", "x"}].self_ms, 2));
  EXPECT(near(flat[{"a", "y"}].self_ms, 2));
}

void test_busy_fraction() {
  std::vector<perfbench::Span> spans = {
      span("components", "idct", 0, 0, 30),
      span("components", "idct", 1, 10, 20)};
  // 40 ms busy over 50 ms x 2 workers.
  EXPECT(near(perfbench::busy_fraction(spans, 50, 2), 0.4));
  EXPECT(near(perfbench::busy_fraction(spans, 0, 2), 0));
}

void test_task_class() {
  std::map<std::string, std::string> classes = {
      {"dec/idct_y", "idct"}, {"hblur", "blur_h"}, {"sink", "yuv_sink"}};
  EXPECT(perfbench::task_class("dec/idct_y#3", classes) == "idct");
  EXPECT(perfbench::task_class("hblur#0.1", classes) == "blur");
  EXPECT(perfbench::task_class("sink", classes) == "yuv_sink");
  EXPECT(perfbench::task_class("other", classes) == "unknown");
}

void test_report_sets_by_name() {
  perfbench::Report r;
  perfbench::add_layer_defaults(&r);
  size_t n = r.layer.size();
  r.add_layer("hinch.busy_frac", 0.5, "ratio", "wall x workers");
  EXPECT(r.layer.size() == n);
  r.check(true, "a");
  r.check(false, "b");
  EXPECT(r.attempted == 2 && r.failed == 1 && r.failures.size() == 1);
}

}  // namespace

int main() {
  test_median_and_mean();
  test_tail_supported();
  test_tail_backs_off();
  test_tail_small_sample_is_max();
  test_self_time();
  test_busy_fraction();
  test_task_class();
  test_report_sets_by_name();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_tests: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_tests: ok\n");
  return 0;
}
