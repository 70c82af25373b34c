// The obs layer: ring-buffer trace recorders, the Chrome trace-event
// exporter, the unified MetricsRegistry, and their wiring into both
// executors. The golden-trace tests pin the end-to-end guarantees the
// tooling relies on: a sim trace is byte-identical across runs, the
// exported JSON is well-formed (checked with the independent
// support::json parser), and a reconfigurable run carries exactly one
// marker per splice.
#include <gtest/gtest.h>

#include <clocale>
#include <set>
#include <string>

#include "components/components.hpp"
#include "hinch/runtime.hpp"
#include "obs/chrome_export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "xspcl/loader.hpp"

namespace {

using obs::Category;
using obs::ClockDomain;
using obs::EventKind;
using obs::TraceEvent;
using obs::TraceRecorder;
using obs::TraceSession;

TEST(TraceRecorder, RoundsCapacityToPowerOfTwo) {
  EXPECT_EQ(TraceRecorder(1).capacity(), 2u);  // floor of 2
  EXPECT_EQ(TraceRecorder(5).capacity(), 8u);
  EXPECT_EQ(TraceRecorder(8).capacity(), 8u);
  EXPECT_EQ(TraceRecorder(100).capacity(), 128u);
}

TEST(TraceRecorder, RetainsEverythingUnderCapacity) {
  if (!obs::kTraceCompiledIn) GTEST_SKIP() << "built with HINCH_TRACING=OFF";
  TraceRecorder rec(8);
  for (uint64_t i = 0; i < 5; ++i)
    rec.counter(/*name=*/0, Category::kSched, /*ts=*/i,
                static_cast<int64_t>(i));
  EXPECT_EQ(rec.emitted(), 5u);
  EXPECT_EQ(rec.dropped(), 0u);
  std::vector<TraceEvent> events = rec.collect();
  ASSERT_EQ(events.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) EXPECT_EQ(events[i].ts, i);
}

TEST(TraceRecorder, WraparoundKeepsNewestAndCountsDropped) {
  if (!obs::kTraceCompiledIn) GTEST_SKIP() << "built with HINCH_TRACING=OFF";
  TraceRecorder rec(8);
  for (uint64_t i = 0; i < 20; ++i)
    rec.counter(0, Category::kSched, i, static_cast<int64_t>(i));
  EXPECT_EQ(rec.emitted(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);
  std::vector<TraceEvent> events = rec.collect();
  ASSERT_EQ(events.size(), 8u);
  // Flight-recorder semantics: the oldest 12 were overwritten, the
  // retained window is [12, 20) in emission order.
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(events[i].ts, 12 + i);
}

TEST(TraceSession, InterningIsStableAndShared) {
  TraceSession session(16);
  uint16_t a = session.intern("alpha");
  uint16_t b = session.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(session.intern("alpha"), a);
  session.begin_run(2, ClockDomain::kCycles);
  // begin_run resets recorders but keeps the name table.
  EXPECT_EQ(session.intern("beta"), b);
  std::vector<std::string> names = session.names();
  ASSERT_GT(names.size(), static_cast<size_t>(std::max(a, b)));
  EXPECT_EQ(names[a], "alpha");
  EXPECT_EQ(names[b], "beta");
}

TEST(TraceSession, DroppedAndEmittedSumOverLanes) {
  if (!obs::kTraceCompiledIn) GTEST_SKIP() << "built with HINCH_TRACING=OFF";
  TraceSession session(4);
  session.begin_run(2, ClockDomain::kCycles);
  for (uint64_t i = 0; i < 6; ++i)
    session.recorder(0)->counter(0, Category::kSched, i, 0);
  session.recorder(1)->counter(0, Category::kSched, 0, 0);
  EXPECT_EQ(session.emitted(), 7u);
  EXPECT_EQ(session.dropped(), 2u);  // lane 0 overflowed its 4 slots
}

TEST(Metrics, SetSnapshotAndDump) {
  obs::MetricsRegistry reg;
  reg.set("b.count", int64_t{3});
  reg.set("b.count", int64_t{7});
  reg.set("a.rate", 0.25);
  obs::MetricsRegistry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.get_int("b.count"), 7);
  EXPECT_DOUBLE_EQ(snap.get_double("a.rate"), 0.25);
  EXPECT_TRUE(snap.has("a.rate"));
  EXPECT_FALSE(snap.has("missing"));
  EXPECT_EQ(snap.get_int("missing"), 0);
  // Sorted, one metric per line.
  EXPECT_EQ(snap.to_text(), "a.rate 0.25\nb.count 7\n");

  auto parsed = support::json::parse(snap.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const support::json::Value& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.number_or("b.count", -1), 7);
  EXPECT_EQ(root.number_or("a.rate", -1), 0.25);
}

TEST(Metrics, LastSetDecidesTheType) {
  obs::MetricsRegistry reg;
  reg.set("v", int64_t{3});
  reg.set("v", 2.5);
  obs::MetricsRegistry::Snapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.get_double("v"), 2.5);
  EXPECT_EQ(snap.get_int("v"), 2);  // truncation of 2.5
  EXPECT_EQ(snap.to_text(), "v 2.5\n");
  reg.set("v", 4);
  EXPECT_EQ(reg.snapshot().to_text(), "v 4\n");
}

TEST(Metrics, SnapshotIsADetachedCopy) {
  obs::MetricsRegistry reg;
  reg.set("a", int64_t{1});
  reg.set("b", 0.75);
  obs::MetricsRegistry::Snapshot snap = reg.snapshot();
  // Later registry writes do not leak into the snapshot.
  reg.set("a", int64_t{99});
  reg.set("c", int64_t{5});
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.get_int("a"), 1);
  EXPECT_DOUBLE_EQ(snap.get_double("b"), 0.75);
  EXPECT_TRUE(snap.has("b"));
  EXPECT_FALSE(snap.has("c"));
  EXPECT_EQ(snap.get_int("c"), 0);
  // values() exposes the map for iteration.
  EXPECT_EQ(snap.values().begin()->first, "a");
}

// Runs `fn` under a decimal-comma locale when one is installed;
// otherwise skips. Restores the previous locale on every path.
template <typename Fn>
void with_comma_locale(Fn&& fn) {
  const char* previous = std::setlocale(LC_ALL, nullptr);
  std::string saved = previous != nullptr ? previous : "C";
  const char* chosen = nullptr;
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8"}) {
    if (std::setlocale(LC_ALL, name) != nullptr) {
      chosen = name;
      break;
    }
  }
  if (chosen == nullptr)
    GTEST_SKIP() << "no decimal-comma locale installed";
  fn();
  std::setlocale(LC_ALL, saved.c_str());
}

TEST(Metrics, JsonRoundTripsUnderCommaLocale) {
  // snprintf("%g") honours LC_NUMERIC: under de_DE it prints "0,25",
  // which is invalid JSON and breaks the dotted-name text format. The
  // formatter must be locale-independent.
  with_comma_locale([] {
    obs::MetricsRegistry reg;
    reg.set("a.rate", 0.25);
    reg.set("b.count", int64_t{7});
    obs::MetricsRegistry::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.to_text(), "a.rate 0.25\nb.count 7\n");
    auto parsed = support::json::parse(snap.to_json());
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    EXPECT_DOUBLE_EQ(parsed.value().number_or("a.rate", -1), 0.25);
    // The parser side must be locale-independent too (strtod would
    // stop at the '.').
    EXPECT_DOUBLE_EQ(support::json::parse("6.02e23").value().number(),
                     6.02e23);
    EXPECT_DOUBLE_EQ(support::parse_double("2.5").value(), 2.5);
  });
}

TEST(Metrics, EscapesNamesInJson) {
  obs::MetricsRegistry reg;
  reg.set("weird\"name\\x", int64_t{1});
  auto parsed = support::json::parse(reg.snapshot().to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().number_or("weird\"name\\x", -1), 1);
}

// --- end-to-end traces ------------------------------------------------------

// A pure compute kernel with a fixed charge, so the traced programs stay
// deterministic and self-contained (no clips, no streams).
class ChargeComponent : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::Params&) {
    return support::Result<std::unique_ptr<hinch::Component>>(
        std::make_unique<ChargeComponent>());
  }
  void run(hinch::ExecContext& ctx) override { ctx.charge_compute(500); }
};

hinch::ComponentRegistry& test_registry() {
  static hinch::ComponentRegistry reg = [] {
    hinch::ComponentRegistry r;
    components::register_standard(r);
    r.register_class({"charge", &ChargeComponent::create, {}, {}, {}});
    return r;
  }();
  return reg;
}

// A small reconfigurable program: a scripted event source toggles an
// option twice, so a 2-core sim run exercises spans, admit markers,
// counters and reconfiguration splices.
constexpr char kReconfigSpec[] = R"(
<xspcl>
  <procedure name="main">
    <body>
      <component name="user" class="event_script">
        <param name="queue" value="ui"/>
        <param name="script" value="3:flip;8:flip"/>
      </component>
      <component name="stage" class="charge"/>
      <manager name="mgr" queue="ui">
        <on event="flip" action="toggle" option="opt"/>
        <body>
          <option name="opt" enabled="true">
            <component name="optional" class="charge"/>
          </option>
        </body>
      </manager>
    </body>
  </procedure>
</xspcl>
)";

std::unique_ptr<hinch::Program> build_reconfig_program() {
  auto prog = xspcl::build_program(kReconfigSpec, test_registry());
  EXPECT_TRUE(prog.is_ok()) << prog.status().to_string();
  return prog.is_ok() ? std::move(prog).take() : nullptr;
}

struct TracedSim {
  hinch::SimResult result;
  std::string json;
};

TracedSim run_traced_sim() {
  TracedSim out;
  auto prog = build_reconfig_program();
  TraceSession session;
  hinch::RunConfig run;
  run.iterations = 16;
  hinch::SimParams sim;
  sim.cores = 2;
  sim.trace = &session;
  out.result = hinch::run_on_sim(*prog, run, sim);
  out.json = obs::to_chrome_json(session);
  return out;
}

TEST(GoldenTrace, SimTraceIsByteIdenticalAcrossRuns) {
  if (!obs::kTraceCompiledIn) GTEST_SKIP() << "tracing compiled out";
  TracedSim a = run_traced_sim();
  TracedSim b = run_traced_sim();
  EXPECT_EQ(a.result.total_cycles, b.result.total_cycles);
  EXPECT_EQ(a.json, b.json);
  EXPECT_FALSE(a.json.empty());
}

TEST(GoldenTrace, SimTraceSchemaAndContent) {
  if (!obs::kTraceCompiledIn) GTEST_SKIP() << "tracing compiled out";
  TracedSim t = run_traced_sim();

  auto parsed = support::json::parse(t.json);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const support::json::Value& root = parsed.value();
  ASSERT_TRUE(root.is_object());

  const support::json::Value* other = root.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->string_or("clock", ""), "cycles");
  EXPECT_EQ(other->number_or("lanes", 0), 2);

  const support::json::Value* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::set<int64_t> span_lanes;
  uint64_t spans = 0, reconfig_markers = 0, counters = 0;
  for (const support::json::Value& ev : events->array()) {
    ASSERT_TRUE(ev.is_object());
    std::string ph = ev.string_or("ph", "");
    ASSERT_FALSE(ph.empty());
    if (ph == "X") {
      ++spans;
      span_lanes.insert(static_cast<int64_t>(ev.number_or("tid", -1)));
    } else if (ph == "i" && ev.string_or("cat", "") == "reconfig") {
      ++reconfig_markers;
    } else if (ph == "C") {
      ++counters;
    }
  }
  // Spans on every simulated core, counters present, and exactly one
  // marker per splice the scheduler performed.
  EXPECT_EQ(span_lanes, (std::set<int64_t>{0, 1}));
  EXPECT_GT(spans, 0u);
  EXPECT_GT(counters, 0u);
  EXPECT_EQ(reconfig_markers, t.result.sched.reconfigurations);
  EXPECT_GE(reconfig_markers, 1u);
}

TEST(GoldenTrace, ThreadBackendTraceIsWellFormed) {
  if (!obs::kTraceCompiledIn) GTEST_SKIP() << "tracing compiled out";
  auto prog = build_reconfig_program();
  TraceSession session;
  hinch::RunConfig run;
  run.iterations = 16;
  hinch::ThreadResult r = hinch::run_on_threads(*prog, run, 2, &session);

  auto parsed = support::json::parse(obs::to_chrome_json(session));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const support::json::Value& root = parsed.value();
  const support::json::Value* other = root.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->string_or("clock", ""), "wall_ns");
  EXPECT_EQ(other->number_or("lanes", 0), 2);

  uint64_t spans = 0;
  for (const support::json::Value& ev :
       root.find("traceEvents")->array())
    if (ev.string_or("ph", "") == "X") ++spans;
  // Every executed job produced exactly one span.
  EXPECT_EQ(spans, r.jobs);
}

TEST(ChromeExport, EscapesAwkwardNames) {
  TraceSession session(16);
  session.begin_run(1, ClockDomain::kCycles);
  uint16_t name = session.intern("we\"ird\\na\nme\ttab");
  session.recorder(0)->span(name, Category::kTask, 10, 5, 0, 0);
  auto parsed = support::json::parse(obs::to_chrome_json(session));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
}

TEST(Metrics, CollectFromSimResultUnifiesAllSources) {
  auto prog = build_reconfig_program();
  hinch::RunConfig run;
  run.iterations = 8;
  hinch::SimParams sim;
  sim.cores = 2;
  hinch::SimResult r = hinch::run_on_sim(*prog, run, sim);

  obs::MetricsRegistry reg;
  hinch::collect_metrics(*prog, r, &reg);
  obs::MetricsRegistry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.get_int("sim.total_cycles"),
            static_cast<int64_t>(r.total_cycles));
  EXPECT_EQ(snap.get_int("sim.cores"), 2);
  EXPECT_EQ(snap.get_int("sched.jobs_executed"),
            static_cast<int64_t>(r.sched.jobs_executed));
  EXPECT_EQ(snap.get_int("mem.accesses"),
            static_cast<int64_t>(r.mem.accesses));
  EXPECT_TRUE(snap.has("sim.utilization"));
  EXPECT_TRUE(snap.has("task.stage.cycles"));
  // The dump is parseable JSON.
  auto parsed = support::json::parse(snap.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
}

TEST(Metrics, CollectFromThreadResult) {
  auto prog = build_reconfig_program();
  hinch::RunConfig run;
  run.iterations = 8;
  hinch::ThreadResult r = hinch::run_on_threads(*prog, run, 2);

  obs::MetricsRegistry reg;
  hinch::collect_metrics(*prog, r, &reg);
  obs::MetricsRegistry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.get_int("threads.jobs"), static_cast<int64_t>(r.jobs));
  EXPECT_EQ(snap.get_int("threads.workers"), 2);
  EXPECT_EQ(snap.get_int("sched.jobs_executed"),
            static_cast<int64_t>(r.sched.jobs_executed));
}

}  // namespace
