// Property tests over randomly generated SP programs (seeded, so every
// failure is reproducible): for any valid graph the scheduler must run
// every non-optional component exactly once per iteration, never
// deadlock, be deterministic on the simulator, and agree with the
// thread executor.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <mutex>

#include "hinch/runtime.hpp"
#include "hinch/stream.hpp"
#include "media/frame.hpp"
#include "sp/graph.hpp"
#include "sp/validate.hpp"
#include "support/rng.hpp"

namespace {

using hinch::Program;
using hinch::RunConfig;
using hinch::SimParams;
using sp::NodePtr;
using sp::ParShape;

// --- a component with a configurable port signature -------------------------------

struct RunBoard {
  std::mutex mutex;
  std::map<std::string, int> runs;
  void clear() {
    std::lock_guard<std::mutex> lock(mutex);
    runs.clear();
  }
};

RunBoard& board() {
  static RunBoard b;
  return b;
}

// Reads `ins` packets, writes their sum (plus the iteration) to `outs`
// outputs, charges `cost` cycles. Packets are small gray frames, and a
// replica of a sliced region reads and writes only its own band of rows,
// in place, as real sliced components do: replicas never write the same
// bytes, and a crossdep phase-2 replica reads only rows its phase-1 twin
// wrote.
class RandomComponent : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::ComponentConfig& config) {
    int ins = static_cast<int>(hinch::param_int_or(config.params, "ins", 0));
    int outs =
        static_cast<int>(hinch::param_int_or(config.params, "outs", 0));
    int64_t cost = hinch::param_int_or(config.params, "cost", 100);
    return support::Result<std::unique_ptr<hinch::Component>>(
        std::make_unique<RandomComponent>(ins, outs, cost));
  }

  RandomComponent(int ins, int outs, int64_t cost) : cost_(cost) {
    for (int i = 0; i < ins; ++i)
      declare_input("in" + std::to_string(i));
    for (int i = 0; i < outs; ++i)
      declare_output("out" + std::to_string(i));
  }

  void run(hinch::ExecContext& ctx) override {
    constexpr int kWidth = 8;
    constexpr int kRows = 8;
    ctx.charge_compute(static_cast<uint64_t>(cost_));
    int r0 = 0, r1 = 0;
    hinch::slice_rows(kRows, slice_index(), slice_count(), &r0, &r1);
    int64_t acc = ctx.iteration();
    for (int i = 0; i < input_count(); ++i) {
      media::ConstPlaneView in = ctx.read(i).frame()->plane(0);
      for (int y = r0; y < r1; ++y) acc += in.row(y)[0];
    }
    for (int i = 0; i < output_count(); ++i) {
      media::PlaneView out =
          output_stream(i)
              ->get_or_alloc_frame(ctx.iteration(), media::PixelFormat::kGray,
                                   kWidth, kRows)
              ->plane(0);
      for (int y = r0; y < r1; ++y)
        std::memset(out.row(y), static_cast<uint8_t>(acc), kWidth);
    }
    std::lock_guard<std::mutex> lock(board().mutex);
    ++board().runs[instance()];
  }

 private:
  int64_t cost_;
};

// --- random program generation ------------------------------------------------------

struct Gen {
  support::SplitMix64 rng;
  int next_id = 0;
  int next_stream = 0;
  int components = 0;
  std::vector<std::string> optional_instances;

  explicit Gen(uint64_t seed) : rng(seed) {}

  std::string fresh_stream() {
    return "s" + std::to_string(next_stream++);
  }

  sp::LeafSpec make_leaf(std::vector<std::string>* available,
                         bool force_source) {
    sp::LeafSpec spec;
    spec.instance = "c" + std::to_string(next_id++);
    spec.klass = "random";
    int ins = 0;
    if (!force_source && !available->empty())
      ins = static_cast<int>(rng.next_below(
          std::min<uint64_t>(available->size(), 3) + 1));
    int outs = 1 + static_cast<int>(rng.next_below(2));
    spec.params.push_back({"ins", std::to_string(ins)});
    spec.params.push_back({"outs", std::to_string(outs)});
    spec.params.push_back(
        {"cost", std::to_string(50 + rng.next_below(500))});
    for (int i = 0; i < ins; ++i) {
      const std::string& s =
          (*available)[rng.next_below(available->size())];
      spec.inputs.push_back({"in" + std::to_string(i), s});
    }
    std::vector<std::string> produced;
    for (int i = 0; i < outs; ++i) {
      std::string s = fresh_stream();
      spec.outputs.push_back({"out" + std::to_string(i), s});
      produced.push_back(s);
    }
    for (std::string& s : produced) available->push_back(std::move(s));
    ++components;
    return spec;
  }

  // Generates a subtree; `available` carries the streams visible to
  // sequential successors.
  NodePtr gen(int depth, std::vector<std::string>* available,
              bool inside_manager, bool inside_option) {
    uint64_t pick = rng.next_below(100);
    if (depth <= 0 || pick < 35) {
      NodePtr leaf = sp::make_leaf(make_leaf(available, available->empty()));
      if (inside_option)
        optional_instances.push_back(leaf->leaf.instance);
      return leaf;
    }
    if (pick < 55) {  // seq of 2-4
      int n = 2 + static_cast<int>(rng.next_below(3));
      std::vector<NodePtr> steps;
      for (int i = 0; i < n; ++i)
        steps.push_back(
            gen(depth - 1, available, inside_manager, inside_option));
      return sp::make_seq(std::move(steps));
    }
    if (pick < 70) {  // task par: blocks see only pre-existing streams
      int n = 2 + static_cast<int>(rng.next_below(2));
      std::vector<std::string> before = *available;
      std::vector<NodePtr> blocks;
      for (int i = 0; i < n; ++i) {
        std::vector<std::string> local = before;
        blocks.push_back(
            gen(depth - 1, &local, inside_manager, inside_option));
        for (size_t k = before.size(); k < local.size(); ++k)
          available->push_back(local[k]);
      }
      return sp::make_par(ParShape::kTask, 1, std::move(blocks));
    }
    if (pick < 80) {  // slice region around one component
      int replicas = 2 + static_cast<int>(rng.next_below(4));
      std::vector<NodePtr> one;
      NodePtr leaf = sp::make_leaf(make_leaf(available, available->empty()));
      if (inside_option)
        optional_instances.push_back(leaf->leaf.instance);
      one.push_back(std::move(leaf));
      return sp::make_par(ParShape::kSlice, replicas, std::move(one));
    }
    if (pick < 88) {  // crossdep: two single-leaf phases
      int replicas = 2 + static_cast<int>(rng.next_below(4));
      std::vector<NodePtr> blocks;
      NodePtr h = sp::make_leaf(make_leaf(available, available->empty()));
      NodePtr v = sp::make_leaf(make_leaf(available, false));
      if (inside_option) {
        optional_instances.push_back(h->leaf.instance);
        optional_instances.push_back(v->leaf.instance);
      }
      blocks.push_back(std::move(h));
      blocks.push_back(std::move(v));
      return sp::make_par(ParShape::kCrossDep, replicas, std::move(blocks));
    }
    if (pick < 94 && !inside_manager) {  // manager with an option
      std::string mgr = "m" + std::to_string(next_id++);
      std::string opt = "o" + std::to_string(next_id++);
      bool enabled = rng.next_below(2) == 0;
      // Streams produced inside the option must not escape: when the
      // option is disabled nobody writes them, so an outside reader
      // would see an empty slot.
      std::vector<std::string> local = *available;
      NodePtr body = gen(depth - 1, &local, /*inside_manager=*/true,
                         /*inside_option=*/true);
      NodePtr option = sp::make_option(opt, enabled, std::move(body));
      return sp::make_manager(
          mgr, "q" + std::to_string(next_id),
          {sp::EventRule{"never", sp::EventAction::kToggle, opt, ""}},
          std::move(option));
    }
    // group of 2-3 fused components
    int n = 2 + static_cast<int>(rng.next_below(2));
    std::vector<NodePtr> comps;
    for (int i = 0; i < n; ++i) {
      NodePtr leaf = sp::make_leaf(make_leaf(available, false));
      if (inside_option)
        optional_instances.push_back(leaf->leaf.instance);
      comps.push_back(std::move(leaf));
    }
    return sp::make_group(std::move(comps));
  }
};

struct GeneratedProgram {
  NodePtr graph;
  int components = 0;
  std::vector<std::string> optional;
};

GeneratedProgram generate(uint64_t seed) {
  Gen gen(seed);
  std::vector<std::string> available;
  std::vector<NodePtr> steps;
  int sections = 2 + static_cast<int>(gen.rng.next_below(3));
  for (int i = 0; i < sections; ++i)
    steps.push_back(gen.gen(3, &available, false, false));
  GeneratedProgram out;
  out.graph = sp::make_seq(std::move(steps));
  out.components = gen.components;
  out.optional = std::move(gen.optional_instances);
  return out;
}

hinch::ComponentRegistry& registry() {
  static hinch::ComponentRegistry reg = [] {
    hinch::ComponentRegistry r;
    r.register_class("random", &RandomComponent::create);
    return r;
  }();
  return reg;
}

// --- the properties ------------------------------------------------------------------

class RandomGraphTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGraphTest, SimRunsEveryComponentEveryIteration) {
  GeneratedProgram g = generate(GetParam());
  ASSERT_TRUE(sp::validate(*g.graph).is_ok())
      << sp::validate(*g.graph).to_string();
  auto prog = Program::build(*g.graph, registry());
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();

  const int64_t iterations = 7;
  for (int cores : {1, 3}) {
    board().clear();
    RunConfig run;
    run.iterations = iterations;
    SimParams sim;
    sim.cores = cores;
    hinch::SimResult r = hinch::run_on_sim(*prog.value(), run, sim);
    EXPECT_GT(r.total_cycles, 0u);

    std::set<std::string> optional(g.optional.begin(), g.optional.end());
    std::lock_guard<std::mutex> lock(board().mutex);
    int ran_components = 0;
    for (const auto& [instance, runs] : board().runs) {
      ran_components += runs > 0 ? 1 : 0;
      // Replicated instances carry a suffix; check the base name too.
      std::string base = instance.substr(0, instance.find('#'));
      if (optional.count(base) || optional.count(instance)) {
        EXPECT_LE(runs, iterations) << instance;
      } else {
        EXPECT_EQ(runs, iterations) << instance << " seed=" << GetParam();
      }
    }
    EXPECT_GT(ran_components, 0);
  }
}

TEST_P(RandomGraphTest, SimIsDeterministic) {
  GeneratedProgram g = generate(GetParam());
  auto prog = Program::build(*g.graph, registry());
  ASSERT_TRUE(prog.is_ok());
  RunConfig run;
  run.iterations = 5;
  SimParams sim;
  sim.cores = 4;
  board().clear();
  uint64_t a = hinch::run_on_sim(*prog.value(), run, sim).total_cycles;
  board().clear();
  uint64_t b = hinch::run_on_sim(*prog.value(), run, sim).total_cycles;
  EXPECT_EQ(a, b) << "seed=" << GetParam();
}

TEST_P(RandomGraphTest, ThreadExecutorAgreesWithSim) {
  GeneratedProgram g = generate(GetParam());
  auto prog = Program::build(*g.graph, registry());
  ASSERT_TRUE(prog.is_ok());
  RunConfig run;
  run.iterations = 6;

  board().clear();
  hinch::run_on_sim(*prog.value(), run, SimParams{});
  std::map<std::string, int> sim_runs;
  {
    std::lock_guard<std::mutex> lock(board().mutex);
    sim_runs = board().runs;
  }

  board().clear();
  hinch::run_on_threads(*prog.value(), run, 4);
  std::lock_guard<std::mutex> lock(board().mutex);
  EXPECT_EQ(board().runs, sim_runs) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphTest,
                         ::testing::Range<uint64_t>(1, 25));

// A heavier soak: a larger random program, more iterations, more
// workers, narrow window — the configurations most likely to expose
// scheduler races or slot-reuse bugs.
TEST(RandomGraphStress, ManyIterationsManyWorkers) {
  GeneratedProgram g = generate(4242);
  auto prog =
      Program::build(*g.graph, registry(),
                     hinch::BuildConfig{.stream_depth = 3, .passes = {}});
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  for (int workers : {2, 8}) {
    for (int window : {1, 3}) {
      board().clear();
      RunConfig run;
      run.iterations = 60;
      run.window = window;
      hinch::ThreadResult r =
          hinch::run_on_threads(*prog.value(), run, workers);
      EXPECT_GT(r.jobs, 0u);
      std::set<std::string> optional(g.optional.begin(), g.optional.end());
      std::lock_guard<std::mutex> lock(board().mutex);
      for (const auto& [instance, runs] : board().runs) {
        std::string base = instance.substr(0, instance.find('#'));
        if (!optional.count(base) && !optional.count(instance)) {
          EXPECT_EQ(runs, 60) << instance;
        }
      }
    }
  }
}

}  // namespace
