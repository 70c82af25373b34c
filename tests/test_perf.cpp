// Performance prediction (Fig. 1 / PAM-SoC companion): analytic SPC
// evaluation and profile-based DAG evaluation, validated against the
// simulator.
#include <gtest/gtest.h>

#include "components/components.hpp"
#include "hinch/runtime.hpp"
#include "perf/predict.hpp"
#include "sp/graph.hpp"
#include "xspcl/loader.hpp"

namespace {

using perf::Prediction;
using sp::NodePtr;
using sp::ParShape;

sp::LeafSpec leaf(const std::string& name, double cost) {
  sp::LeafSpec spec;
  spec.instance = name;
  spec.klass = "k";
  spec.params.push_back({"cost", std::to_string(cost)});
  return spec;
}

// Leaf cost taken from the "cost" parameter; slices divide the work.
double cost_fn(const sp::LeafSpec& spec, int slice_count) {
  for (const sp::Param& p : spec.params)
    if (p.name == "cost") return std::stod(p.value) / slice_count;
  return 0;
}

TEST(PredictTree, SequentialSums) {
  std::vector<NodePtr> steps;
  steps.push_back(sp::make_leaf(leaf("a", 100)));
  steps.push_back(sp::make_leaf(leaf("b", 300)));
  steps.push_back(sp::make_leaf(leaf("c", 50)));
  NodePtr g = sp::make_seq(std::move(steps));
  Prediction p = perf::predict_from_tree(*g, cost_fn, 1);
  EXPECT_DOUBLE_EQ(p.work, 450);
  EXPECT_DOUBLE_EQ(p.span, 450);
  EXPECT_DOUBLE_EQ(p.t_iteration, 450);
  // Pipelined interval is bounded by the heaviest component.
  EXPECT_DOUBLE_EQ(p.interval, 450);
  Prediction p4 = perf::predict_from_tree(*g, cost_fn, 4);
  EXPECT_DOUBLE_EQ(p4.t_iteration, 450);  // span-bound: a chain is serial
  EXPECT_DOUBLE_EQ(p4.interval, 300);     // throughput-bound by `b`
}

TEST(PredictTree, TaskParallelTakesMaxSpan) {
  std::vector<NodePtr> blocks;
  blocks.push_back(sp::make_leaf(leaf("a", 100)));
  blocks.push_back(sp::make_leaf(leaf("b", 400)));
  NodePtr g = sp::make_par(ParShape::kTask, 1, std::move(blocks));
  Prediction p1 = perf::predict_from_tree(*g, cost_fn, 1);
  EXPECT_DOUBLE_EQ(p1.work, 500);
  EXPECT_DOUBLE_EQ(p1.span, 400);
  EXPECT_DOUBLE_EQ(p1.t_iteration, 500);  // work-bound on one processor
  Prediction p2 = perf::predict_from_tree(*g, cost_fn, 2);
  EXPECT_DOUBLE_EQ(p2.t_iteration, 400);  // span-bound
}

TEST(PredictTree, SliceDividesSpan) {
  std::vector<NodePtr> one;
  one.push_back(sp::make_leaf(leaf("w", 800)));
  NodePtr g = sp::make_par(ParShape::kSlice, 8, std::move(one));
  Prediction p8 = perf::predict_from_tree(*g, cost_fn, 8);
  EXPECT_DOUBLE_EQ(p8.work, 800);   // 8 copies x 100
  EXPECT_DOUBLE_EQ(p8.span, 100);   // one copy on the critical path
  EXPECT_DOUBLE_EQ(p8.t_iteration, 100);
}

TEST(PredictTree, CrossdepEvaluatedThroughSpForm) {
  std::vector<NodePtr> blocks;
  blocks.push_back(sp::make_leaf(leaf("h", 600)));
  blocks.push_back(sp::make_leaf(leaf("v", 600)));
  NodePtr g = sp::make_par(ParShape::kCrossDep, 6, std::move(blocks));
  Prediction p = perf::predict_from_tree(*g, cost_fn, 6);
  EXPECT_DOUBLE_EQ(p.work, 1200);
  // SP form: two slice phases in sequence -> span = 100 + 100.
  EXPECT_DOUBLE_EQ(p.span, 200);
}

TEST(PredictTree, DisabledOptionCostsNothing) {
  std::vector<NodePtr> steps;
  steps.push_back(sp::make_leaf(leaf("base", 100)));
  steps.push_back(sp::make_manager(
      "m", "q", {},
      sp::make_option("off", false, sp::make_leaf(leaf("extra", 1000)))));
  NodePtr g = sp::make_seq(std::move(steps));
  Prediction p = perf::predict_from_tree(*g, cost_fn, 1);
  EXPECT_DOUBLE_EQ(p.work, 100);
}

TEST(PredictTree, TotalAccountsForPipelineFill) {
  std::vector<NodePtr> steps;
  steps.push_back(sp::make_leaf(leaf("a", 100)));
  steps.push_back(sp::make_leaf(leaf("b", 100)));
  NodePtr g = sp::make_seq(std::move(steps));
  Prediction p = perf::predict_from_tree(*g, cost_fn, 2);
  // total = span + (n-1) * interval; interval = max(200/2, 100) = 100.
  EXPECT_DOUBLE_EQ(p.total(1), 200);
  EXPECT_DOUBLE_EQ(p.total(11), 200 + 10 * 100);
  EXPECT_DOUBLE_EQ(p.total(0), 0);
}

// --- profile-based prediction vs the simulator -----------------------------------

class PredictVsSimTest : public ::testing::TestWithParam<int> {};

TEST_P(PredictVsSimTest, SpeedupPredictionTracksSimulator) {
  // A pipeline with a sliced middle stage; costs dominated by compute so
  // the analytic model (which ignores the memory system) applies.
  const char* spec = R"(
<xspcl><procedure name="main"><body>
  <component name="src" class="video_source">
    <param name="width" value="128"/><param name="height" value="96"/>
    <param name="frames" value="4"/>
    <outport name="out" stream="video"/>
  </component>
  <parallel shape="slice" n="8"><parblock>
    <component name="blur" class="blur_h">
      <param name="kernel" value="5"/>
      <inport name="in" stream="video"/>
      <outport name="out" stream="out"/>
    </component>
  </parblock></parallel>
  <component name="sink" class="frame_sink">
    <inport name="in" stream="out"/>
  </component>
</body></procedure></xspcl>)";
  components::register_standard_globally();
  auto prog =
      xspcl::build_program(spec, hinch::ComponentRegistry::global());
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();

  hinch::RunConfig run;
  run.iterations = 24;
  hinch::SimParams sim1;
  sim1.cores = 1;
  sim1.sync_costs = false;
  hinch::SimResult base = hinch::run_on_sim(*prog.value(), run, sim1);
  std::vector<double> cost(base.task_cycles.size(), 0);
  for (size_t i = 0; i < cost.size(); ++i)
    if (base.task_runs[i])
      cost[i] = static_cast<double>(base.task_cycles[i]) /
                static_cast<double>(base.task_runs[i]);

  int cores = GetParam();
  hinch::SimParams simn;
  simn.cores = cores;
  simn.sync_costs = cores > 1;
  hinch::SimResult measured = hinch::run_on_sim(*prog.value(), run, simn);
  double measured_speedup = static_cast<double>(base.total_cycles) /
                            static_cast<double>(measured.total_cycles);

  perf::Prediction p1 = perf::predict_from_profile(*prog.value(), cost, 1);
  perf::Prediction pn =
      perf::predict_from_profile(*prog.value(), cost, cores);
  double predicted_speedup =
      p1.total(run.iterations) / pn.total(run.iterations);

  // The SPC model should land in the right ballpark (the sim adds queue
  // contention and cache effects the analytic model ignores).
  EXPECT_GT(measured_speedup, 0.55 * predicted_speedup);
  EXPECT_LT(measured_speedup, 1.45 * predicted_speedup + 0.2);
}

INSTANTIATE_TEST_SUITE_P(Cores, PredictVsSimTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(PredictProfile, SpeedupCurveIsMonotonicAndBounded) {
  const char* spec = R"(
<xspcl><procedure name="main"><body>
  <component name="src" class="video_source">
    <param name="width" value="64"/><param name="height" value="64"/>
    <param name="frames" value="2"/>
    <outport name="out" stream="v"/>
  </component>
  <parallel shape="slice" n="4"><parblock>
    <component name="c" class="copy">
      <inport name="in" stream="v"/><outport name="out" stream="w"/>
    </component>
  </parblock></parallel>
  <component name="sink" class="frame_sink"><inport name="in" stream="w"/></component>
</body></procedure></xspcl>)";
  components::register_standard_globally();
  auto prog =
      xspcl::build_program(spec, hinch::ComponentRegistry::global());
  ASSERT_TRUE(prog.is_ok());
  std::vector<double> cost(prog.value()->tasks().size(), 100.0);
  const double t1 =
      perf::predict_from_profile(*prog.value(), cost, 1).total(100);
  double previous = 1.0;
  for (int p = 2; p <= 9; ++p) {
    double speedup =
        t1 / perf::predict_from_profile(*prog.value(), cost, p).total(100);
    EXPECT_GE(speedup + 1e-9, previous);  // monotone
    EXPECT_LE(speedup, p + 1e-9);         // <= linear
    previous = speedup;
  }
}

// A reentrant task overlaps across iterations, so the pipelined
// interval's per-task term is the heaviest task that keeps its self
// edge: here the IDCT, not the (heavier) reentrant decoder.
TEST(PredictProfile, ReentrantTaskDoesNotBoundTheInterval) {
  const char* spec = R"(
<xspcl><procedure name="main"><body>
  <component name="src" class="mjpeg_source">
    <param name="width" value="32"/><param name="height" value="16"/>
    <param name="frames" value="2"/>
    <outport name="out" stream="jpeg"/>
  </component>
  <component name="dec" class="jpeg_decode" reentrant="$r">
    <inport name="jpeg" stream="jpeg"/><outport name="coeffs" stream="c"/>
  </component>
  <component name="idct" class="idct">
    <inport name="coeffs" stream="c"/><outport name="out" stream="y"/>
  </component>
  <component name="sink" class="frame_sink"><inport name="in" stream="y"/></component>
</body></procedure></xspcl>)";
  components::register_standard_globally();
  for (const char* reentrant : {"false", "true"}) {
    std::string text = spec;
    text.replace(text.find("$r"), 2, reentrant);
    auto prog =
        xspcl::build_program(text, hinch::ComponentRegistry::global());
    ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
    ASSERT_EQ(prog.value()->task(1).label, "dec");
    //                        src   dec   idct  sink
    std::vector<double> cost = {10.0, 400.0, 100.0, 20.0};
    Prediction p = perf::predict_from_profile(*prog.value(), cost, 8);
    EXPECT_DOUBLE_EQ(p.work, 530);
    EXPECT_DOUBLE_EQ(p.span, 530);
    if (std::string(reentrant) == "true") {
      EXPECT_DOUBLE_EQ(p.interval, 100);
      EXPECT_EQ(p.bound_task, 2);
    } else {
      EXPECT_DOUBLE_EQ(p.interval, 400);
      EXPECT_EQ(p.bound_task, 1);
    }
    // On one processor the work term binds either way.
    EXPECT_DOUBLE_EQ(
        perf::predict_from_profile(*prog.value(), cost, 1).interval, 530);
  }
}

TEST(PredictTree, ReentrantLeafDoesNotBoundTheInterval) {
  std::vector<NodePtr> steps;
  steps.push_back(sp::make_leaf(leaf("a", 100)));
  sp::LeafSpec heavy = leaf("b", 300);
  heavy.reentrant = true;
  steps.push_back(sp::make_leaf(heavy));
  steps.push_back(sp::make_leaf(leaf("c", 50)));
  NodePtr g = sp::make_seq(std::move(steps));
  Prediction p4 = perf::predict_from_tree(*g, cost_fn, 4);
  EXPECT_DOUBLE_EQ(p4.t_iteration, 450);
  EXPECT_DOUBLE_EQ(p4.interval, 112.5);  // work / 4, above a's 100
}

}  // namespace
