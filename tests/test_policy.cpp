// The feedback loop end to end: executors publish "live.*" gauges into
// a MetricsRegistry, the policy component polls them and drives the
// manager/option protocol. Pins the loop's determinism under the sim
// executor (same spec + load step => identical reconfiguration
// sequence) and its thread-safety under the thread executor (live
// snapshot() polling from a foreign thread mid-run — a designated
// ThreadSanitizer workload, see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "components/components.hpp"
#include "hinch/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "xspcl/loader.hpp"

namespace {

// The adapt loop at test scale (specs/adapt_small.xml's shape): a
// stepped load, a policy watching the sim's cycles-per-iteration gauge,
// and a manager that sheds/restores an optional stage.
constexpr char kAdaptSpec[] = R"(
<xspcl>
  <procedure name="main">
    <body>
      <component name="load" class="var_load">
        <param name="cycles" value="2000"/>
        <param name="step_at" value="40"/>
        <param name="step_cycles" value="12000"/>
        <param name="restore_at" value="120"/>
      </component>
      <component name="watchdog" class="policy">
        <param name="queue" value="ctl"/>
        <param name="rules"
               value="live.cycles_per_iter:9000:6000:overload:calm"/>
        <param name="hold" value="4"/>
        <param name="warmup" value="16"/>
      </component>
      <manager name="mgr" queue="ctl">
        <on event="overload" action="disable" option="hq"/>
        <on event="calm" action="enable" option="hq"/>
        <body>
          <option name="hq" enabled="true">
            <component name="hq_stage" class="var_load">
              <param name="cycles" value="3000"/>
            </component>
          </option>
        </body>
      </manager>
    </body>
  </procedure>
</xspcl>
)";

// Thread-executor variant: wall-clock cycle gauges do not exist there,
// so the policy watches the monotonic live.iterations_done gauge — the
// crossing is guaranteed, the exact iteration it fires on is not.
constexpr char kThreadAdaptSpec[] = R"(
<xspcl>
  <procedure name="main">
    <body>
      <component name="load" class="var_load">
        <param name="cycles" value="100"/>
      </component>
      <component name="watchdog" class="policy">
        <param name="queue" value="ctl"/>
        <param name="rules"
               value="live.iterations_done:40:-1:overload:calm"/>
      </component>
      <manager name="mgr" queue="ctl">
        <on event="overload" action="disable" option="hq"/>
        <on event="calm" action="enable" option="hq"/>
        <body>
          <option name="hq" enabled="true">
            <component name="hq_stage" class="var_load">
              <param name="cycles" value="100"/>
            </component>
          </option>
        </body>
      </manager>
    </body>
  </procedure>
</xspcl>
)";

std::unique_ptr<hinch::Program> build(const char* spec) {
  components::register_standard_globally();
  auto prog =
      xspcl::build_program(spec, hinch::ComponentRegistry::global());
  EXPECT_TRUE(prog.is_ok()) << prog.status().to_string();
  return prog.is_ok() ? std::move(prog).take() : nullptr;
}

struct SimAdaptRun {
  hinch::SimResult result;
  std::vector<uint64_t> reconfig_ts;  // splice markers, in trace order
  std::string live_text;              // final live gauge dump
};

SimAdaptRun run_sim_adapt() {
  SimAdaptRun out;
  auto prog = build(kAdaptSpec);
  obs::TraceSession session;
  obs::MetricsRegistry live;
  hinch::RunConfig run;
  run.iterations = 160;
  hinch::SimParams sim;
  sim.cores = 1;
  sim.trace = &session;
  sim.metrics = &live;
  out.result = hinch::run_on_sim(*prog, run, sim);
  for (int lane = 0; lane < session.lanes(); ++lane) {
    for (const obs::TraceEvent& ev : session.recorder(lane)->collect()) {
      if (ev.kind == obs::EventKind::kInstant &&
          ev.cat == obs::Category::kReconfig)
        out.reconfig_ts.push_back(ev.ts);
    }
  }
  out.live_text = live.snapshot().to_text();
  return out;
}

TEST(PolicyLoop, SimReactsToLoadStepDeterministically) {
  if (!obs::kTraceCompiledIn) GTEST_SKIP() << "built with HINCH_TRACING=OFF";
  SimAdaptRun a = run_sim_adapt();
  SimAdaptRun b = run_sim_adapt();
  // The loop reacted: one shed at the step, one restore after it.
  EXPECT_EQ(a.result.sched.reconfigurations, 2u);
  ASSERT_EQ(a.reconfig_ts.size(), 2u);
  // Identical spec + load step => identical reconfiguration sequence,
  // cycle counts, and final live gauges.
  EXPECT_EQ(a.result.total_cycles, b.result.total_cycles);
  EXPECT_EQ(a.result.sched.reconfigurations,
            b.result.sched.reconfigurations);
  EXPECT_EQ(a.reconfig_ts, b.reconfig_ts);
  EXPECT_EQ(a.live_text, b.live_text);
}

TEST(PolicyLoop, InertWithoutLiveRegistry) {
  auto prog = build(kAdaptSpec);
  hinch::RunConfig run;
  run.iterations = 160;
  hinch::SimParams sim;
  sim.cores = 1;  // no metrics registry attached
  hinch::SimResult r = hinch::run_on_sim(*prog, run, sim);
  EXPECT_EQ(r.sched.reconfigurations, 0u);
}

TEST(PolicyLoop, PublicationNeverAltersSimCycles) {
  auto prog_plain = build(kAdaptSpec);
  hinch::RunConfig run;
  run.iterations = 30;  // inside the warmup: the policy stays passive
  hinch::SimParams sim;
  sim.cores = 2;
  hinch::SimResult plain = hinch::run_on_sim(*prog_plain, run, sim);
  auto prog_live = build(kAdaptSpec);
  obs::MetricsRegistry live;
  sim.metrics = &live;
  hinch::SimResult with_live = hinch::run_on_sim(*prog_live, run, sim);
  EXPECT_EQ(plain.total_cycles, with_live.total_cycles);
  EXPECT_EQ(plain.jobs, with_live.jobs);
  EXPECT_GT(live.snapshot().get_int("live.cycles"), 0);
}

TEST(PolicyLoop, ThreadRunWithConcurrentSnapshotPolling) {
  auto prog = build(kThreadAdaptSpec);
  obs::MetricsRegistry live;
  hinch::RunConfig run;
  run.iterations = 100;
  // A foreign observer thread hammers the live-poll API for the whole
  // run — snapshot(), lookups, and the text dump must all be race-free
  // against the workers' publication (the tsan workload).
  std::atomic<bool> done{false};
  std::atomic<uint64_t> polls{0};
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      obs::MetricsRegistry::Snapshot snap = live.snapshot();
      if (snap.has("live.iterations_done")) {
        EXPECT_GE(snap.get_int("live.iterations_done"), 0);
      }
      (void)snap.to_text();
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });
  hinch::ThreadResult r = hinch::run_on_threads(*prog, run, /*workers=*/4,
                                                /*trace=*/nullptr, &live);
  done.store(true, std::memory_order_release);
  poller.join();
  EXPECT_GT(polls.load(), 0u);
  // The policy crossed the iterations_done threshold and shed the
  // optional stage exactly once (the gauge is monotonic, so the rule
  // can never flip back).
  EXPECT_EQ(r.sched.reconfigurations, 1u);
  EXPECT_EQ(live.snapshot().get_int("live.iterations_done"), 100);
}

}  // namespace
