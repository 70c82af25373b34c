// hinchtrace — summarize a Chrome trace-event file produced by the obs
// tracing layer (xspclc run --trace=..., fig10_reconfig_overhead
// --trace, hinchd's `trace` command, or obs::write_chrome_trace
// directly).
//
//   hinchtrace <trace.json>
//
// Prints the clock domain, per-lane busy time and utilization, the top
// tasks by total span duration, counter high-water marks, and the
// reconfiguration markers. Doubles as a validator: it exits nonzero on
// unparseable JSON or on a file that is not a trace-event document, so
// CI runs it against the fig10 trace artifact. A trace file is one
// session, so lanes are keyed by tid alone.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace {

struct LaneStats {
  std::string name;
  double busy_us = 0;
  uint64_t spans = 0;
  double first_ts = -1;
  double last_end = 0;
};

struct TaskStats {
  double total_us = 0;
  uint64_t runs = 0;
};

int fail(const std::string& msg) {
  std::fprintf(stderr, "hinchtrace: %s\n", msg.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: hinchtrace <trace.json>\n");
    return 2;
  }
  const char* path = argv[1];
  auto parsed = support::json::parse_file(path);
  if (!parsed.is_ok()) return fail(parsed.status().message());
  const support::json::Value& root = parsed.value();
  if (!root.is_object()) return fail("top level is not a JSON object");
  const support::json::Value* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array())
    return fail("missing traceEvents array");

  std::string clock = "unknown";
  if (const support::json::Value* other = root.find("otherData"))
    clock = other->string_or("clock", clock);
  const char* unit = clock == "cycles" ? "cycles" : "us";

  std::map<int64_t, LaneStats> lanes;  // by tid
  std::map<std::string, TaskStats> tasks;
  // Counter high-water marks, keyed by "name@lane"-independent name.
  std::map<std::string, int64_t> counter_max;
  struct Marker {
    double ts;
    std::string name;
    int64_t lane;
  };
  std::vector<Marker> reconfigs;
  uint64_t total_events = 0;

  for (const support::json::Value& ev : events->array()) {
    if (!ev.is_object()) return fail("traceEvents entry is not an object");
    std::string ph = ev.string_or("ph", "");
    if (ph.empty()) return fail("event without ph field");
    std::string name = ev.string_or("name", "?");
    int64_t tid = static_cast<int64_t>(ev.number_or("tid", 0));
    ++total_events;
    if (ph == "M") {
      if (name == "thread_name")
        if (const support::json::Value* a = ev.find("args"))
          lanes[tid].name = a->string_or("name", "");
      continue;
    }
    double ts = ev.number_or("ts", 0);
    LaneStats& lane = lanes[tid];
    if (ph == "X") {
      double dur = ev.number_or("dur", 0);
      lane.busy_us += dur;
      ++lane.spans;
      if (lane.first_ts < 0 || ts < lane.first_ts) lane.first_ts = ts;
      lane.last_end = std::max(lane.last_end, ts + dur);
      TaskStats& t = tasks[name];
      t.total_us += dur;
      ++t.runs;
    } else if (ph == "i") {
      std::string cat = ev.string_or("cat", "");
      if (cat == "reconfig") reconfigs.push_back({ts, name, tid});
    } else if (ph == "C") {
      if (const support::json::Value* a = ev.find("args")) {
        int64_t v = static_cast<int64_t>(a->number_or("value", 0));
        auto [it, inserted] = counter_max.emplace(name, v);
        if (!inserted) it->second = std::max(it->second, v);
      }
    }
  }

  double span_end = 0;
  for (const auto& [tid, lane] : lanes)
    span_end = std::max(span_end, lane.last_end);

  std::printf("trace: %s\n", path);
  std::printf("clock: %s   events: %" PRIu64 "   span: %.0f %s\n",
              clock.c_str(), total_events, span_end, unit);
  if (const support::json::Value* other = root.find("otherData")) {
    int64_t dropped = static_cast<int64_t>(other->number_or("dropped", 0));
    if (dropped > 0)
      std::printf("dropped: %" PRId64 " events lost to ring wraparound\n",
                  dropped);
  }

  std::printf("\nlanes:\n");
  for (const auto& [tid, lane] : lanes) {
    double util = span_end > 0 ? 100.0 * lane.busy_us / span_end : 0;
    std::string label =
        lane.name.empty() ? "tid " + std::to_string(tid) : lane.name;
    std::printf("  %-10s spans=%-8" PRIu64 " busy=%-12.0f util=%5.1f%%\n",
                label.c_str(), lane.spans, lane.busy_us, util);
  }

  std::vector<std::pair<std::string, TaskStats>> by_cost(tasks.begin(),
                                                         tasks.end());
  std::sort(by_cost.begin(), by_cost.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });
  std::printf("\ntop tasks (by total %s):\n", unit);
  size_t shown = 0;
  for (const auto& [name, t] : by_cost) {
    if (++shown > 10) break;
    std::printf("  %-24s total=%-12.0f runs=%-8" PRIu64 " mean=%.0f\n",
                name.c_str(), t.total_us, t.runs,
                t.runs ? t.total_us / static_cast<double>(t.runs) : 0);
  }

  if (!counter_max.empty()) {
    std::printf("\ncounter high-water marks:\n");
    for (const auto& [name, v] : counter_max)
      std::printf("  %-24s max=%" PRId64 "\n", name.c_str(), v);
  }

  if (!reconfigs.empty()) {
    std::printf("\nreconfigurations: %zu\n", reconfigs.size());
    size_t listed = 0;
    for (const Marker& m : reconfigs) {
      if (++listed > 10) {
        std::printf("  ... (%zu more)\n", reconfigs.size() - 10);
        break;
      }
      std::printf("  ts=%-12.0f lane=%" PRId64 "\n", m.ts, m.lane);
    }
    // Adaptation summary: splice spacing over the run. A healthy
    // feedback policy reconfigures on load edges only — a small min gap
    // relative to the span is the signature of an oscillating policy
    // (degenerate hysteresis band; see docs/OBSERVABILITY.md).
    std::vector<double> ts_sorted;
    ts_sorted.reserve(reconfigs.size());
    for (const Marker& m : reconfigs) ts_sorted.push_back(m.ts);
    std::sort(ts_sorted.begin(), ts_sorted.end());
    std::printf("\nadaptation summary:\n");
    std::printf("  first=%.0f last=%.0f (%.1f%% of span apart)\n",
                ts_sorted.front(), ts_sorted.back(),
                span_end > 0
                    ? 100.0 * (ts_sorted.back() - ts_sorted.front()) /
                          span_end
                    : 0.0);
    if (ts_sorted.size() > 1) {
      double min_gap = ts_sorted[1] - ts_sorted[0], sum_gap = 0;
      for (size_t i = 1; i < ts_sorted.size(); ++i) {
        double gap = ts_sorted[i] - ts_sorted[i - 1];
        sum_gap += gap;
        if (gap < min_gap) min_gap = gap;
      }
      std::printf("  inter-splice gap: min=%.0f mean=%.0f (%s)\n", min_gap,
                  sum_gap / static_cast<double>(ts_sorted.size() - 1),
                  unit);
    }
  }
  return 0;
}
