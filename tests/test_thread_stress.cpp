// Multi-worker stress tests for the work-stealing thread executor: many
// iterations x deep pipeline window x reconfiguration events, asserting
// that the scheduler-visible statistics agree with the deterministic
// simulator backend. Designed to run under ThreadSanitizer (label
// "tsan"; build with -DHINCH_SANITIZE=thread) — any data race between
// the scheduler's lock and the kernels running outside it shows up here.
//
// Determinism notes. The event source is scheduled before the manager
// inside a <seq>, so with window == 1 every poll observes exactly the
// events of its own iteration and all five statistics are
// schedule-independent. With a deep window the iteration at which a
// flip is *detected* may vary between schedules (pipelined enters poll
// the shared queue), so jobs_executed/jobs_skipped can shift between
// executed and skipped — but their sum, and the event/reconfiguration
// counters, cannot.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <string>

#include "components/components.hpp"
#include "hinch/region_table.hpp"
#include "hinch/runtime.hpp"
#include "obs/trace.hpp"
#include "xspcl/loader.hpp"

namespace {

using hinch::Program;
using hinch::RunConfig;
using hinch::SchedulerStats;
using hinch::SimParams;
using hinch::SimResult;
using hinch::ThreadResult;

struct Counts {
  std::mutex mutex;
  std::map<std::string, int> runs;
  void clear() {
    std::lock_guard<std::mutex> lock(mutex);
    runs.clear();
  }
  int of(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex);
    return runs[name];
  }
};

Counts& board() {
  static Counts c;
  return c;
}

class CountingComponent : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::Params&) {
    return support::Result<std::unique_ptr<hinch::Component>>(
        std::make_unique<CountingComponent>());
  }
  void run(hinch::ExecContext& ctx) override {
    ctx.charge_compute(100);
    std::lock_guard<std::mutex> lock(board().mutex);
    ++board().runs[instance()];
  }
};

hinch::ComponentRegistry make_registry() {
  hinch::ComponentRegistry reg;
  components::register_standard(reg);
  reg.register_class({"counter", &CountingComponent::create, {}, {}, {}});
  return reg;
}

// `ntasks` independent counter components, a scripted event source, and
// a manager with one optional counter — event source first so that, at
// window 1, polls are deterministic.
std::string stress_spec(int ntasks, const std::string& script, bool enabled) {
  std::string spec = R"(
<xspcl>
  <procedure name="main">
    <body>
      <component name="user" class="event_script">
        <param name="queue" value="ui"/>
        <param name="script" value=")" +
                     script + R"("/>
      </component>
)";
  for (int i = 0; i < ntasks; ++i) {
    spec += "      <component name=\"c" + std::to_string(i) +
            "\" class=\"counter\"/>\n";
  }
  spec += std::string(R"(      <manager name="mgr" queue="ui">
        <on event="flip" action="toggle" option="opt"/>
        <on event="on"   action="enable" option="opt"/>
        <body>
          <option name="opt" enabled=")") +
          (enabled ? "true" : "false") + R"(">
            <component name="optional" class="counter"/>
          </option>
        </body>
      </manager>
    </body>
  </procedure>
</xspcl>
)";
  return spec;
}

class ThreadStressTest : public ::testing::Test {
 protected:
  void SetUp() override { board().clear(); }
  hinch::ComponentRegistry registry_ = make_registry();

  std::unique_ptr<Program> build(const std::string& spec) {
    auto prog = xspcl::build_program(spec, registry_);
    EXPECT_TRUE(prog.is_ok()) << prog.status().to_string();
    return prog.is_ok() ? std::move(prog).take() : nullptr;
  }

  SchedulerStats sim_stats(Program& prog, int64_t iterations, int window) {
    RunConfig run;
    run.iterations = iterations;
    run.window = window;
    SimParams sim;
    sim.cores = 2;
    SimResult r = hinch::run_on_sim(prog, run, sim);
    board().clear();
    return r.sched;
  }

  ThreadResult run_threads(Program& prog, int64_t iterations, int window,
                           int workers) {
    RunConfig run;
    run.iterations = iterations;
    run.window = window;
    return hinch::run_on_threads(prog, run, workers);
  }
};

void expect_equal_stats(const SchedulerStats& a, const SchedulerStats& b,
                        const std::string& what) {
  EXPECT_EQ(a.jobs_executed, b.jobs_executed) << what;
  EXPECT_EQ(a.jobs_skipped, b.jobs_skipped) << what;
  EXPECT_EQ(a.reconfigurations, b.reconfigurations) << what;
  EXPECT_EQ(a.events_handled, b.events_handled) << what;
  EXPECT_EQ(a.components_created, b.components_created) << what;
}

TEST_F(ThreadStressTest, StatsMatchSimAtWindowOne) {
  // Window 1: iterations are fully sequential, every statistic is
  // schedule-independent even with mid-run reconfigurations.
  constexpr int kTasks = 12;
  constexpr int64_t kIters = 40;
  auto prog = build(stress_spec(kTasks, "3:flip;9:flip;15:flip", false));
  ASSERT_TRUE(prog);
  SchedulerStats want = sim_stats(*prog, kIters, /*window=*/1);
  EXPECT_EQ(want.reconfigurations, 3u);
  for (int workers : {2, 4, 8}) {
    ThreadResult r = run_threads(*prog, kIters, /*window=*/1, workers);
    expect_equal_stats(r.sched, want,
                       "workers=" + std::to_string(workers));
    EXPECT_EQ(board().of("c0"), kIters);
    EXPECT_EQ(board().of("c11"), kIters);
    board().clear();
  }
}

TEST_F(ThreadStressTest, StatsMatchSimDeepWindowNoStateChanges) {
  // Deep window, events that never change option state (§3.4: "the
  // event is ignored when the option is already in the required
  // state"): every field still deterministic.
  constexpr int kTasks = 16;
  constexpr int64_t kIters = 60;
  auto prog = build(stress_spec(kTasks, "3:on;7:on;11:on", true));
  ASSERT_TRUE(prog);
  SchedulerStats want = sim_stats(*prog, kIters, /*window=*/5);
  EXPECT_EQ(want.reconfigurations, 0u);
  EXPECT_EQ(want.events_handled, 3u);
  for (int workers : {2, 4, 8}) {
    ThreadResult r = run_threads(*prog, kIters, /*window=*/5, workers);
    expect_equal_stats(r.sched, want,
                       "workers=" + std::to_string(workers));
    EXPECT_EQ(board().of("optional"), kIters);
    board().clear();
  }
}

TEST_F(ThreadStressTest, DeepWindowReconfigInvariants) {
  // Deep window with widely spaced flips (farther apart than any two
  // in-flight polls can straddle): the detection iteration may differ
  // between schedules, so executed/skipped can trade off against each
  // other — but every (task, iteration) instance is exactly one of the
  // two, and every event is handled exactly once.
  constexpr int kTasks = 24;
  constexpr int64_t kIters = 300;
  const int window = 5;
  std::string script;
  int64_t flips = 0;
  for (int64_t at = 20; at <= kIters - 20; at += 40) {
    script += (script.empty() ? "" : ";") + std::to_string(at) + ":flip";
    ++flips;
  }
  auto prog = build(stress_spec(kTasks, script, false));
  ASSERT_TRUE(prog);
  SchedulerStats want = sim_stats(*prog, kIters, window);
  EXPECT_EQ(want.reconfigurations, static_cast<uint64_t>(flips));
  // Total instances: ntasks counters + event source + manager enter +
  // manager exit + the optional component, each once per iteration;
  // plus one splice job per reconfiguration.
  const uint64_t per_iter = static_cast<uint64_t>(kTasks) + 4;
  const uint64_t total = per_iter * static_cast<uint64_t>(kIters);
  ASSERT_EQ(want.jobs_executed + want.jobs_skipped,
            total + want.reconfigurations);
  for (int workers : {2, 4, 8}) {
    ThreadResult r = run_threads(*prog, kIters, window, workers);
    const std::string what = "workers=" + std::to_string(workers);
    EXPECT_EQ(r.sched.reconfigurations, want.reconfigurations) << what;
    EXPECT_EQ(r.sched.events_handled, want.events_handled) << what;
    EXPECT_EQ(r.sched.components_created, want.components_created) << what;
    EXPECT_EQ(r.sched.jobs_executed + r.sched.jobs_skipped,
              total + r.sched.reconfigurations)
        << what;
    // Non-optional components run every iteration regardless of the
    // schedule.
    EXPECT_EQ(board().of("c0"), kIters) << what;
    EXPECT_EQ(board().of("c23"), kIters) << what;
    // Executor bookkeeping is self-consistent.
    ASSERT_EQ(r.worker_jobs.size(), static_cast<size_t>(workers)) << what;
    uint64_t sum = 0;
    for (uint64_t j : r.worker_jobs) sum += j;
    EXPECT_EQ(sum, r.jobs) << what;
    EXPECT_EQ(r.jobs, r.sched.jobs_executed) << what;
    board().clear();
  }
}

TEST_F(ThreadStressTest, RepeatedRunsStayConsistent) {
  // Hammer the same program repeatedly at high worker counts; under
  // TSan this is the main race detector for the release/fire/finish
  // paths.
  constexpr int kTasks = 8;
  constexpr int64_t kIters = 120;
  auto prog = build(stress_spec(kTasks, "11:flip;51:flip;91:flip", false));
  ASSERT_TRUE(prog);
  const uint64_t per_iter = static_cast<uint64_t>(kTasks) + 4;
  for (int round = 0; round < 5; ++round) {
    ThreadResult r = run_threads(*prog, kIters, /*window=*/5, 8);
    EXPECT_EQ(r.sched.reconfigurations, 3u) << "round " << round;
    EXPECT_EQ(r.sched.jobs_executed + r.sched.jobs_skipped,
              per_iter * kIters + r.sched.reconfigurations)
        << "round " << round;
    EXPECT_EQ(board().of("c0"), kIters) << "round " << round;
    board().clear();
  }
}

TEST_F(ThreadStressTest, TracingEnabledStaysRaceFreeAndConsistent) {
  // Same hammer with a TraceSession attached: every worker emits spans,
  // steal/park markers and counters into its own recorder lane, and the
  // small ring (4096/lane) forces constant wraparound. Under TSan this
  // is the designated workload for the tracing paths.
  constexpr int kTasks = 8;
  constexpr int64_t kIters = 120;
  auto prog = build(stress_spec(kTasks, "11:flip;51:flip;91:flip", false));
  ASSERT_TRUE(prog);
  obs::TraceSession session(1 << 12);
  const uint64_t per_iter = static_cast<uint64_t>(kTasks) + 4;
  for (int round = 0; round < 3; ++round) {
    RunConfig run;
    run.iterations = kIters;
    run.window = 5;
    ThreadResult r = hinch::run_on_threads(*prog, run, 8, &session);
    EXPECT_EQ(r.sched.reconfigurations, 3u) << "round " << round;
    EXPECT_EQ(r.sched.jobs_executed + r.sched.jobs_skipped,
              per_iter * kIters + r.sched.reconfigurations)
        << "round " << round;
    if (obs::kTraceCompiledIn) {
      // One span per executed job; emitted also counts markers/counters.
      EXPECT_GE(session.emitted(), r.jobs) << "round " << round;
    }
    board().clear();
  }
}

// Regression: stream region keys must stay distinct for streams deeper
// than 256 slots. The old packing shifted the stream index by only 8
// bits, so (stream 1, slot 4) collided with (stream 0, slot 260) and
// the simulator accounted two different buffers as one region.
TEST(RegionTableTest, DeepStreamKeysDoNotAlias) {
  sim::MemorySystem mem(sim::CacheConfig{}, 1);
  hinch::RegionTable table(&mem, /*depth=*/300);
  EXPECT_NE(table.stream_key(0, 260), table.stream_key(1, 4));
  sim::RegionId a = table.stream_region(0, 260, 1024);
  sim::RegionId b = table.stream_region(1, 4, 1024);
  EXPECT_NE(a, b);
  // Same (stream, slot) still shares one region across ring reuse.
  EXPECT_EQ(table.stream_region(0, 260, 1024),
            table.stream_region(0, 560, 1024));
}

TEST(RegionTableTest, KeysInjectiveAcrossManyStreams) {
  sim::MemorySystem mem(sim::CacheConfig{}, 1);
  const int depth = 1000;
  hinch::RegionTable table(&mem, depth);
  std::map<uint64_t, std::pair<int, int64_t>> seen;
  for (int stream = 0; stream < 8; ++stream) {
    for (int64_t slot = 0; slot < depth; slot += 37) {
      uint64_t key = table.stream_key(stream, slot);
      auto [it, inserted] = seen.emplace(key, std::make_pair(stream, slot));
      EXPECT_TRUE(inserted) << "key collision: stream " << stream << " slot "
                            << slot << " vs stream " << it->second.first
                            << " slot " << it->second.second;
    }
  }
}

}  // namespace
