// Reconfiguration semantics (§3.4): options, managers, event rules,
// quiescing, pre-creation accounting.
#include <gtest/gtest.h>

#include <map>
#include <mutex>

#include "components/components.hpp"
#include "hinch/runtime.hpp"
#include "sp/graph.hpp"
#include "xspcl/loader.hpp"

namespace {

using hinch::Program;
using hinch::RunConfig;
using hinch::SimParams;
using hinch::SimResult;

// Counts runs per instance, via a test-global board.
struct Counts {
  std::mutex mutex;
  std::map<std::string, int> runs;
  std::map<std::string, std::string> reconfigs;
  void clear() {
    std::lock_guard<std::mutex> lock(mutex);
    runs.clear();
    reconfigs.clear();
  }
  int of(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex);
    return runs[name];
  }
  std::string reconfig_of(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex);
    return reconfigs[name];
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
  void reconfigure(std::string_view request) override {
    std::lock_guard<std::mutex> lock(board().mutex);
    board().reconfigs[instance()] = std::string(request);
  }
};

hinch::ComponentRegistry make_registry() {
  hinch::ComponentRegistry reg;
  components::register_standard(reg);
  reg.register_class({"counter", &CountingComponent::create, {}, {}, {}});
  return reg;
}

class ReconfigTest : public ::testing::Test {
 protected:
  void SetUp() override { board().clear(); }
  hinch::ComponentRegistry registry_ = make_registry();

  std::unique_ptr<Program> build(const std::string& spec) {
    auto prog = xspcl::build_program(spec, registry_);
    EXPECT_TRUE(prog.is_ok()) << prog.status().to_string();
    return prog.is_ok() ? std::move(prog).take() : nullptr;
  }
};

// A manager with one option and a scripted event source.
std::string option_spec(const std::string& script, bool enabled) {
  return std::string(R"(
<xspcl>
  <procedure name="main">
    <body>
      <component name="user" class="event_script">
        <param name="queue" value="ui"/>
        <param name="script" value=")") +
         script + R"("/>
      </component>
      <component name="always" class="counter"/>
      <manager name="mgr" queue="ui">
        <on event="flip" action="toggle" option="opt"/>
        <on event="on"   action="enable" option="opt"/>
        <on event="off"  action="disable" option="opt"/>
        <on event="move" action="reconfigure"/>
        <body>
          <option name="opt" enabled=")" +
         (enabled ? "true" : "false") + R"(">
            <component name="optional" class="counter"/>
          </option>
        </body>
      </manager>
    </body>
  </procedure>
</xspcl>
)";
}

SimResult run_sim(Program& prog, int64_t iterations, int cores = 2,
                  int window = 5) {
  RunConfig run;
  run.iterations = iterations;
  run.window = window;
  SimParams sim;
  sim.cores = cores;
  return hinch::run_on_sim(prog, run, sim);
}

TEST_F(ReconfigTest, DisabledOptionNeverRuns) {
  auto prog = build(option_spec("", false));
  ASSERT_TRUE(prog);
  SimResult r = run_sim(*prog, 10);
  EXPECT_EQ(board().of("always"), 10);
  EXPECT_EQ(board().of("optional"), 0);
  EXPECT_EQ(r.sched.reconfigurations, 0u);
  EXPECT_GT(r.sched.jobs_skipped, 0u);
}

TEST_F(ReconfigTest, EnabledOptionAlwaysRuns) {
  auto prog = build(option_spec("", true));
  ASSERT_TRUE(prog);
  run_sim(*prog, 10);
  EXPECT_EQ(board().of("optional"), 10);
}

TEST_F(ReconfigTest, ToggleEnablesMidRun) {
  // The event fires at iteration 4; the manager polls it at the entry of
  // an iteration >= 4, so the option runs for the remaining iterations.
  auto prog = build(option_spec("4:flip", false));
  ASSERT_TRUE(prog);
  SimResult r = run_sim(*prog, 12);
  EXPECT_EQ(r.sched.reconfigurations, 1u);
  int opt_runs = board().of("optional");
  EXPECT_GT(opt_runs, 0);
  // With 5 pipelined iterations in flight, the enter of an earlier
  // iteration can legitimately observe the asynchronous event (§2:
  // "events can be sent or received at any moment, independent of the
  // current iteration"), so the option may engage up to window-1
  // iterations before the sender's iteration.
  EXPECT_LE(opt_runs, 12);
  EXPECT_GE(12 - opt_runs, 3);
  EXPECT_EQ(board().of("always"), 12);
}

TEST_F(ReconfigTest, ToggleTwiceReturnsToDisabled) {
  auto prog = build(option_spec("3:flip;8:flip", false));
  ASSERT_TRUE(prog);
  SimResult r = run_sim(*prog, 16);
  EXPECT_EQ(r.sched.reconfigurations, 2u);
  int opt_runs = board().of("optional");
  EXPECT_GT(opt_runs, 0);
  EXPECT_LT(opt_runs, 8);
}

TEST_F(ReconfigTest, EnableIgnoredWhenAlreadyEnabled) {
  // §3.4: "The event is ignored when the option is already in the
  // required state."
  auto prog = build(option_spec("3:on;5:on;7:on", true));
  ASSERT_TRUE(prog);
  SimResult r = run_sim(*prog, 12);
  EXPECT_EQ(r.sched.reconfigurations, 0u);
  EXPECT_EQ(board().of("optional"), 12);
  EXPECT_EQ(r.sched.components_created, 0u);
}

TEST_F(ReconfigTest, DisableStopsRuns) {
  auto prog = build(option_spec("5:off", true));
  ASSERT_TRUE(prog);
  SimResult r = run_sim(*prog, 12);
  EXPECT_EQ(r.sched.reconfigurations, 1u);
  int opt_runs = board().of("optional");
  EXPECT_GE(opt_runs, 2);  // pipelined enters may see the event early
  EXPECT_LT(opt_runs, 12);
}

TEST_F(ReconfigTest, EnablePreCreatesComponents) {
  auto prog = build(option_spec("4:on", false));
  ASSERT_TRUE(prog);
  SimResult r = run_sim(*prog, 12);
  EXPECT_EQ(r.sched.components_created, 1u);  // one component in the option
}

TEST_F(ReconfigTest, ReconfigureRuleBroadcastsToSubgraph) {
  auto prog = build(option_spec("4:move:pos=9,9", true));
  ASSERT_TRUE(prog);
  run_sim(*prog, 12);
  // The manager's subgraph contains `optional`; `always` is outside.
  EXPECT_EQ(board().reconfig_of("optional"), "pos=9,9");
  EXPECT_EQ(board().reconfig_of("always"), "");
}

TEST_F(ReconfigTest, ForwardRuleMovesEventsBetweenQueues) {
  const char* spec = R"(
<xspcl>
  <procedure name="main">
    <body>
      <component name="user" class="event_script">
        <param name="queue" value="front"/>
        <param name="script" value="3:flip"/>
      </component>
      <manager name="router" queue="front">
        <on event="flip" action="forward" queue="back"/>
        <body><component name="c1" class="counter"/></body>
      </manager>
      <manager name="mgr" queue="back">
        <on event="flip" action="toggle" option="opt"/>
        <body>
          <option name="opt" enabled="false">
            <component name="optional" class="counter"/>
          </option>
        </body>
      </manager>
    </body>
  </procedure>
</xspcl>
)";
  auto prog = build(spec);
  ASSERT_TRUE(prog);
  SimResult r = run_sim(*prog, 12);
  EXPECT_EQ(r.sched.reconfigurations, 1u);
  EXPECT_GT(board().of("optional"), 0);
}

TEST_F(ReconfigTest, UnmatchedEventsAreDropped) {
  auto prog = build(option_spec("2:unknown_event", false));
  ASSERT_TRUE(prog);
  SimResult r = run_sim(*prog, 8);
  EXPECT_EQ(r.sched.reconfigurations, 0u);
  EXPECT_EQ(board().of("optional"), 0);
  EXPECT_GE(r.sched.events_handled, 1u);
}

TEST_F(ReconfigTest, TwoOptionsToggleTogether) {
  // The Blur-35 pattern: one event toggles two options in opposite
  // directions, so exactly one branch is active at all times.
  const char* spec = R"(
<xspcl>
  <procedure name="main">
    <body>
      <component name="user" class="event_script">
        <param name="queue" value="ui"/>
        <param name="script" value="4:switch;9:switch"/>
      </component>
      <manager name="mgr" queue="ui">
        <on event="switch" action="toggle" option="a"/>
        <on event="switch" action="toggle" option="b"/>
        <body>
          <option name="a" enabled="true">
            <component name="branch_a" class="counter"/>
          </option>
          <option name="b" enabled="false">
            <component name="branch_b" class="counter"/>
          </option>
        </body>
      </manager>
    </body>
  </procedure>
</xspcl>
)";
  auto prog = build(spec);
  ASSERT_TRUE(prog);
  SimResult r = run_sim(*prog, 14);
  EXPECT_EQ(r.sched.reconfigurations, 2u);
  // Every iteration runs exactly one branch.
  EXPECT_EQ(board().of("branch_a") + board().of("branch_b"), 14);
  EXPECT_GT(board().of("branch_a"), 0);
  EXPECT_GT(board().of("branch_b"), 0);
}

TEST_F(ReconfigTest, ReconfigurationCostsCycles) {
  // The same workload with and without a mid-run toggle: the toggling
  // run must be slower (quiesce + splice), the Fig. 10 effect.
  auto quiet = build(option_spec("", false));
  auto busy = build(option_spec("2:flip;4:flip;6:flip;8:flip", false));
  ASSERT_TRUE(quiet && busy);
  uint64_t t_quiet = run_sim(*quiet, 24, 4).total_cycles;
  board().clear();
  uint64_t t_busy = run_sim(*busy, 24, 4).total_cycles;
  EXPECT_GT(t_busy, t_quiet);
}

TEST_F(ReconfigTest, InitialReconfigDeliveredAtCreation) {
  const char* spec = R"(
<xspcl>
  <procedure name="main">
    <body>
      <component name="c" class="counter">
        <reconfig request="mode=fast"/>
      </component>
    </body>
  </procedure>
</xspcl>
)";
  auto prog = build(spec);
  ASSERT_TRUE(prog);
  EXPECT_EQ(board().reconfig_of("c"), "mode=fast");
}

TEST_F(ReconfigTest, ThreadBackendHandlesReconfigToo) {
  auto prog = build(option_spec("4:flip;9:flip", false));
  ASSERT_TRUE(prog);
  RunConfig run;
  run.iterations = 14;
  hinch::ThreadResult r = hinch::run_on_threads(*prog, run, 3);
  EXPECT_EQ(r.sched.reconfigurations, 2u);
  EXPECT_GT(board().of("optional"), 0);
}

}  // namespace
