#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>

#include "components/components.hpp"
#include "hinch/runtime.hpp"
#include "sp/graph.hpp"

namespace {

using hinch::Component;
using hinch::ComponentRegistry;
using hinch::ExecContext;
using hinch::Packet;
using hinch::Program;
using hinch::RunConfig;
using hinch::SimParams;
using hinch::SimResult;
using sp::NodePtr;
using sp::ParShape;

// Shared per-instance probe state, keyed by instance name.
struct ProbeState {
  int runs = 0;
  int64_t last_iteration = -1;
  int slice_index = 0;
  int slice_count = 1;
  std::string last_reconfig;
  std::vector<int64_t> seen_values;  // consumer: payloads per iteration
};

class ProbeBoard {
 public:
  static ProbeBoard& get() {
    static ProbeBoard board;
    return board;
  }
  ProbeState& state(const std::string& instance) {
    std::lock_guard<std::mutex> lock(mutex_);
    return states_[instance];
  }
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    states_.clear();
  }

 private:
  std::mutex mutex_;
  std::map<std::string, ProbeState> states_;
};

// Producer factory calls, to show that Program::build checks every leaf
// before it creates any component.
int g_producers_created = 0;

// Emits the iteration number as payload; charges `cost` cycles.
class Producer : public Component {
 public:
  static support::Result<std::unique_ptr<Component>> create(
      const hinch::Params& params) {
    ++g_producers_created;
    auto c = std::make_unique<Producer>();
    c->cost_ = params.get_int("cost");
    return support::Result<std::unique_ptr<Component>>(std::move(c));
  }

  void run(ExecContext& ctx) override {
    ctx.charge_compute(static_cast<uint64_t>(cost_));
    ctx.write(0, Packet::of(std::make_shared<int64_t>(ctx.iteration())));
    ProbeState& s = ProbeBoard::get().state(instance());
    ++s.runs;
    s.last_iteration = ctx.iteration();
  }

 private:
  int64_t cost_;
};

// Passes its input through, adding `add` to the payload.
class Worker : public Component {
 public:
  static support::Result<std::unique_ptr<Component>> create(
      const hinch::Params& params) {
    auto c = std::make_unique<Worker>();
    c->cost_ = params.get_int("cost");
    c->add_ = params.get_int("add");
    return support::Result<std::unique_ptr<Component>>(std::move(c));
  }

  void run(ExecContext& ctx) override {
    ctx.charge_compute(static_cast<uint64_t>(cost_));
    auto v = ctx.read(0).get<int64_t>();
    ctx.write(0, Packet::of(std::make_shared<int64_t>(*v + add_)));
    ProbeState& s = ProbeBoard::get().state(instance());
    ++s.runs;
    s.slice_index = slice_index();
    s.slice_count = slice_count();
  }

  void reconfigure(std::string_view request) override {
    ProbeBoard::get().state(instance()).last_reconfig = std::string(request);
  }

 private:
  int64_t cost_;
  int64_t add_;
};

// Records the payload of every iteration.
class Consumer : public Component {
 public:
  static support::Result<std::unique_ptr<Component>> create(
      const hinch::Params& params) {
    auto c = std::make_unique<Consumer>();
    c->cost_ = params.get_int("cost");
    return support::Result<std::unique_ptr<Component>>(std::move(c));
  }

  void run(ExecContext& ctx) override {
    ctx.charge_compute(static_cast<uint64_t>(cost_));
    auto v = ctx.read(0).get<int64_t>();
    ProbeState& s = ProbeBoard::get().state(instance());
    ++s.runs;
    s.seen_values.push_back(*v);
  }

 private:
  int64_t cost_ = 50;
};

ComponentRegistry make_registry() {
  ComponentRegistry reg;
  components::register_standard(reg);
  using hinch::int_param;
  reg.register_class({"probe_producer", &Producer::create, {}, {"out"},
                      {int_param("cost", 0, 1 << 30, 100)}});
  const std::vector<hinch::ParamSpec> worker_params = {
      int_param("cost", 0, 1 << 30, 100), int_param("add", -1000, 1000, 0)};
  reg.register_class({"probe_worker", &Worker::create, {"in"}, {"out"},
                      worker_params});
  // The same worker, declared to keep no state between runs.
  reg.register_class({"probe_reentrant_worker", &Worker::create, {"in"},
                      {"out"}, worker_params, /*reentrant=*/true});
  reg.register_class({"probe_consumer", &Consumer::create, {"in"}, {},
                      {int_param("cost", 0, 1 << 30, 50)}});
  return reg;
}

sp::LeafSpec leaf(const std::string& instance, const std::string& klass,
                  std::vector<sp::PortBinding> ins,
                  std::vector<sp::PortBinding> outs,
                  std::vector<sp::Param> params = {}) {
  sp::LeafSpec spec;
  spec.instance = instance;
  spec.klass = klass;
  spec.inputs = std::move(ins);
  spec.outputs = std::move(outs);
  spec.params = std::move(params);
  return spec;
}

// producer -> worker -> consumer; `balanced_cost`, when nonzero, gives
// all three stages the same cost (the pipelining tests need a graph
// whose sequential time is ~3x its steady-state pipelined interval).
NodePtr chain_graph(int64_t worker_cost = 100, int64_t balanced_cost = 0) {
  int64_t prod = balanced_cost ? balanced_cost : 100;
  int64_t work = balanced_cost ? balanced_cost : worker_cost;
  int64_t cons = balanced_cost ? balanced_cost : 50;
  std::vector<NodePtr> steps;
  steps.push_back(sp::make_leaf(
      leaf("prod", "probe_producer", {}, {{"out", "a"}},
           {{"cost", std::to_string(prod)}})));
  steps.push_back(sp::make_leaf(
      leaf("work", "probe_worker", {{"in", "a"}}, {{"out", "b"}},
           {{"cost", std::to_string(work)}, {"add", "0"}})));
  steps.push_back(sp::make_leaf(
      leaf("cons", "probe_consumer", {{"in", "b"}}, {},
           {{"cost", std::to_string(cons)}})));
  return sp::make_seq(std::move(steps));
}

class HinchTest : public ::testing::Test {
 protected:
  void SetUp() override { ProbeBoard::get().clear(); }
  ComponentRegistry registry_ = make_registry();
};

// --- Program::build ------------------------------------------------------------

TEST_F(HinchTest, BuildRejectsUnknownClass) {
  NodePtr g = sp::make_leaf(leaf("x", "no_such_class", {}, {}));
  auto prog = Program::build(*g, registry_);
  EXPECT_FALSE(prog.is_ok());
  EXPECT_EQ(prog.status().code(), support::Code::kNotFound);
}

TEST_F(HinchTest, BuildRejectsUnknownPort) {
  NodePtr g = sp::make_leaf(
      leaf("x", "probe_producer", {}, {{"wrong_port", "s"}}));
  auto prog = Program::build(*g, registry_);
  EXPECT_FALSE(prog.is_ok());
  EXPECT_NE(prog.status().message().find("wrong_port"), std::string::npos);
}

TEST_F(HinchTest, BuildRejectsUnboundPort) {
  NodePtr g = sp::make_leaf(leaf("x", "probe_producer", {}, {}));
  auto prog = Program::build(*g, registry_);
  EXPECT_FALSE(prog.is_ok());
  EXPECT_EQ(prog.status().code(), support::Code::kFailedPrecondition);
}

TEST_F(HinchTest, BuildRejectsDuplicateParam) {
  sp::LeafSpec spec = leaf("x", "probe_producer", {}, {{"out", "s"}});
  spec.params = {{"cost", "1"}, {"cost", "2"}};
  NodePtr g = sp::make_leaf(std::move(spec));
  auto prog = Program::build(*g, registry_);
  EXPECT_EQ(prog.status().code(), support::Code::kAlreadyExists);
}

// Every leaf is checked against its ClassInfo before any factory runs,
// and each error names the instance, its class and the offending param.
TEST_F(HinchTest, BuildChecksParamsBeforeAnyFactoryRuns) {
  auto rejected = [&](std::vector<sp::Param> params) {
    std::vector<NodePtr> steps;
    steps.push_back(
        sp::make_leaf(leaf("prod", "probe_producer", {}, {{"out", "a"}})));
    steps.push_back(sp::make_leaf(leaf("cons", "probe_consumer",
                                       {{"in", "a"}}, {}, std::move(params))));
    const int created = g_producers_created;
    auto prog = Program::build(*sp::make_seq(std::move(steps)), registry_);
    EXPECT_EQ(g_producers_created, created);
    EXPECT_FALSE(prog.is_ok());
    return prog.is_ok() ? std::string() : prog.status().message();
  };
  EXPECT_EQ(rejected({{"cost_typo", "1"}}),
            "component 'cons' (class probe_consumer): unknown param "
            "'cost_typo'");
  EXPECT_EQ(rejected({{"cost", "8x"}}),
            "component 'cons' (class probe_consumer): param 'cost': not an "
            "integer: '8x'");
  EXPECT_EQ(rejected({{"cost", "-1"}}),
            "component 'cons' (class probe_consumer): param 'cost': -1 is "
            "outside [0, 1073741824]");
}

TEST_F(HinchTest, BuildFillsDeclaredDefaults) {
  // probe_worker's cost and add are left out; the defaults run.
  std::vector<NodePtr> steps;
  steps.push_back(
      sp::make_leaf(leaf("prod", "probe_producer", {}, {{"out", "a"}})));
  steps.push_back(sp::make_leaf(
      leaf("work", "probe_worker", {{"in", "a"}}, {{"out", "b"}})));
  steps.push_back(
      sp::make_leaf(leaf("cons", "probe_consumer", {{"in", "b"}}, {})));
  auto prog = Program::build(*sp::make_seq(std::move(steps)), registry_);
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  RunConfig config;
  config.iterations = 2;
  hinch::run_on_sim(*prog.value(), config, SimParams());
  // add defaults to 0: the consumer sees the iteration numbers.
  EXPECT_EQ(ProbeBoard::get().state("cons").seen_values,
            (std::vector<int64_t>{0, 1}));
}

TEST_F(HinchTest, BuildChainStructure) {
  NodePtr g = chain_graph();
  auto prog = Program::build(*g, registry_);
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  EXPECT_EQ(prog.value()->tasks().size(), 3u);
  EXPECT_EQ(prog.value()->component_count(), 3);
  EXPECT_EQ(prog.value()->entry_tasks().size(), 1u);
  EXPECT_NE(prog.value()->find_stream("a"), nullptr);
  EXPECT_EQ(prog.value()->find_stream("zzz"), nullptr);
}

// producer -> `klass` (opted in as reentrant) -> consumer.
NodePtr reentrant_chain(const std::string& klass) {
  sp::LeafSpec work =
      leaf("work", klass, {{"in", "a"}}, {{"out", "b"}}, {{"add", "0"}});
  work.reentrant = true;
  std::vector<NodePtr> steps;
  steps.push_back(
      sp::make_leaf(leaf("prod", "probe_producer", {}, {{"out", "a"}})));
  steps.push_back(sp::make_leaf(std::move(work)));
  steps.push_back(
      sp::make_leaf(leaf("cons", "probe_consumer", {{"in", "b"}}, {})));
  return sp::make_seq(std::move(steps));
}

TEST_F(HinchTest, BuildRejectsUnsafeReentrantOptIns) {
  auto expect_rejected = [&](const sp::Node& g, const std::string& why) {
    auto prog = Program::build(g, registry_);
    ASSERT_FALSE(prog.is_ok()) << why;
    EXPECT_EQ(prog.status().code(), support::Code::kFailedPrecondition);
    EXPECT_NE(prog.status().message().find(why), std::string::npos)
        << prog.status().to_string();
  };
  // The class must declare itself reentrant.
  expect_rejected(*reentrant_chain("probe_worker"),
                  "class probe_worker is not registered reentrant");
  sp::LeafSpec sink = leaf("sink", "yuv_sink",
                           {{"y", "a"}, {"u", "a"}, {"v", "a"}}, {});
  sink.reentrant = true;
  expect_rejected(*sp::make_leaf(sink),
                  "class yuv_sink is not registered reentrant");
  // A task that ends its iteration keeps its self edge.
  sp::LeafSpec last =
      leaf("last", "probe_reentrant_worker", {{"in", "a"}}, {{"out", "b"}});
  last.reentrant = true;
  std::vector<NodePtr> steps;
  steps.push_back(
      sp::make_leaf(leaf("prod", "probe_producer", {}, {{"out", "a"}})));
  steps.push_back(sp::make_leaf(last));
  expect_rejected(*sp::make_seq(std::move(steps)),
                  "nothing in its iteration runs after it");
  // A group's members run as one task.
  std::vector<NodePtr> members;
  members.push_back(sp::make_leaf(last));
  steps.clear();
  steps.push_back(
      sp::make_leaf(leaf("prod", "probe_producer", {}, {{"out", "a"}})));
  steps.push_back(sp::make_group(std::move(members)));
  steps.push_back(
      sp::make_leaf(leaf("cons", "probe_consumer", {{"in", "b"}}, {})));
  expect_rejected(*sp::make_seq(std::move(steps)), "inside a <group>");
}

// --- execution ------------------------------------------------------------------

// Drives the Scheduler by hand, completing jobs in a chosen order: a
// reentrant task's instances overlap across iterations and may finish
// out of order, while iterations still retire in order and the other
// tasks keep their self edges.
TEST_F(HinchTest, ReentrantTaskOverlapsIterationsAndRetiresInOrder) {
  NodePtr g = reentrant_chain("probe_reentrant_worker");
  auto prog = Program::build(*g, registry_);
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  const int prod = 0, work = 1, cons = 2;
  ASSERT_EQ(prog.value()->task(work).label, "work");
  EXPECT_FALSE(prog.value()->task(prod).reentrant);
  EXPECT_TRUE(prog.value()->task(work).reentrant);
  EXPECT_FALSE(prog.value()->task(cons).reentrant);

  RunConfig config;
  config.iterations = 8;
  config.window = 3;
  hinch::Scheduler sched(*prog.value(), config);
  std::vector<hinch::JobRef> ready;  // ready, not yet completed
  std::map<int, int> in_flight;      // task -> ready instances
  int max_work_in_flight = 0;
  auto take = [&](const std::vector<hinch::JobRef>& jobs) {
    for (const hinch::JobRef& j : jobs) {
      ready.push_back(j);
      int n = ++in_flight[j.task];
      if (j.task == work) max_work_in_flight = std::max(max_work_in_flight, n);
      // Tasks that are not opted in keep their self edge.
      if (j.task != work) {
        EXPECT_EQ(n, 1) << "task " << j.task;
      }
    }
  };
  auto is_ready = [&](int task, int64_t iter) {
    return std::find(ready.begin(), ready.end(),
                     hinch::JobRef{task, iter, 0}) != ready.end();
  };
  auto run = [&](int task, int64_t iter) {
    hinch::JobRef job{task, iter, 0};
    auto it = std::find(ready.begin(), ready.end(), job);
    ASSERT_NE(it, ready.end()) << "task " << task << " iter " << iter;
    ready.erase(it);
    --in_flight[task];
    ExecContext ctx(sched.job_component(job), iter, 0,
                    &prog.value()->queues());
    sched.execute(job, ctx);
    take(sched.complete(job));
  };

  take(sched.start());
  run(prod, 0);
  run(prod, 1);
  // work@1 is ready while work@0 has not completed.
  EXPECT_TRUE(is_ready(work, 0));
  EXPECT_TRUE(is_ready(work, 1));
  run(prod, 2);
  EXPECT_EQ(max_work_in_flight, 3);
  // prod@3 waits for iteration 0 to retire (window 3).
  EXPECT_FALSE(is_ready(prod, 3));

  // Complete work@2 and work@1 before work@0.
  run(work, 2);
  run(work, 1);
  EXPECT_FALSE(is_ready(cons, 1));  // cons keeps its self edge
  EXPECT_EQ(sched.iterations_done(), 0);
  run(work, 0);
  run(cons, 0);
  EXPECT_EQ(sched.iterations_done(), 1);
  EXPECT_TRUE(is_ready(cons, 1));
  EXPECT_TRUE(is_ready(prod, 3));

  // Drain, always completing the newest ready job first, and check that
  // iterations retire one at a time, in order.
  int64_t done = sched.iterations_done();
  while (!ready.empty()) {
    hinch::JobRef job = ready.back();
    run(job.task, job.iter);
    int64_t now = sched.iterations_done();
    EXPECT_TRUE(now == done || now == done + 1);
    done = now;
  }
  EXPECT_TRUE(sched.finished());
  EXPECT_EQ(sched.stats().jobs_executed, 24u);
  ProbeState& c = ProbeBoard::get().state("cons");
  ASSERT_EQ(c.runs, 8);
  for (int64_t i = 0; i < 8; ++i) EXPECT_EQ(c.seen_values[i], i);
}

// On the simulator a heavy reentrant stage runs on several cores at once;
// the same stage without the opt-in runs one frame at a time.
TEST_F(HinchTest, ReentrantStageSpreadsOverCoresOnTheSimulator) {
  auto makespan = [&](bool reentrant) {
    sp::LeafSpec work =
        leaf("work", "probe_reentrant_worker", {{"in", "a"}}, {{"out", "b"}},
             {{"cost", "3000"}, {"add", "0"}});
    work.reentrant = reentrant;
    std::vector<NodePtr> steps;
    steps.push_back(sp::make_leaf(
        leaf("prod", "probe_producer", {}, {{"out", "a"}}, {{"cost", "100"}})));
    steps.push_back(sp::make_leaf(std::move(work)));
    steps.push_back(sp::make_leaf(
        leaf("cons", "probe_consumer", {{"in", "b"}}, {}, {{"cost", "100"}})));
    NodePtr g = sp::make_seq(std::move(steps));
    auto prog = Program::build(*g, registry_);
    EXPECT_TRUE(prog.is_ok()) << prog.status().to_string();
    EXPECT_EQ(prog.value()->task_graph_dot().find("[reentrant]") !=
                  std::string::npos,
              reentrant);
    ProbeBoard::get().clear();
    RunConfig run;
    run.iterations = 30;
    SimParams sim;
    sim.cores = 3;
    sim.sync_costs = false;
    SimResult r = hinch::run_on_sim(*prog.value(), run, sim);
    EXPECT_EQ(r.jobs, 90u);
    ProbeState& c = ProbeBoard::get().state("cons");
    EXPECT_EQ(c.runs, 30);
    for (int64_t i = 0; i < c.runs; ++i) EXPECT_EQ(c.seen_values[i], i);
    return r.total_cycles;
  };
  uint64_t serial = makespan(false);
  uint64_t overlapped = makespan(true);
  EXPECT_GT(static_cast<double>(serial) / static_cast<double>(overlapped),
            2.5);
}

TEST_F(HinchTest, ChainRunsAllIterationsInOrder) {
  NodePtr g = chain_graph();
  auto prog = Program::build(*g, registry_);
  ASSERT_TRUE(prog.is_ok());
  RunConfig run;
  run.iterations = 12;
  SimResult r = hinch::run_on_sim(*prog.value(), run, SimParams{});
  EXPECT_GT(r.total_cycles, 0u);
  ProbeState& cons = ProbeBoard::get().state("cons");
  ASSERT_EQ(cons.runs, 12);
  for (int64_t i = 0; i < 12; ++i) EXPECT_EQ(cons.seen_values[i], i);
}

TEST_F(HinchTest, SimIsDeterministic) {
  NodePtr g = chain_graph();
  auto prog = Program::build(*g, registry_);
  ASSERT_TRUE(prog.is_ok());
  RunConfig run;
  run.iterations = 20;
  SimParams sim;
  sim.cores = 3;
  SimResult a = hinch::run_on_sim(*prog.value(), run, sim);
  ProbeBoard::get().clear();
  SimResult b = hinch::run_on_sim(*prog.value(), run, sim);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.mem.stall_cycles, b.mem.stall_cycles);
}

TEST_F(HinchTest, PipeliningOverlapsIterations) {
  // With 3 stages of equal cost and >= 3 cores, pipelining should push
  // throughput toward one stage-cost per iteration rather than three.
  NodePtr g = chain_graph(0, 1000);
  auto prog = Program::build(
      *g, registry_, hinch::BuildConfig{.stream_depth = 5, .passes = {}});
  ASSERT_TRUE(prog.is_ok());
  RunConfig run;
  run.iterations = 50;
  SimParams one;
  one.cores = 1;
  one.sync_costs = false;
  SimParams three;
  three.cores = 3;
  three.sync_costs = false;
  uint64_t t1 = hinch::run_on_sim(*prog.value(), run, one).total_cycles;
  ProbeBoard::get().clear();
  uint64_t t3 = hinch::run_on_sim(*prog.value(), run, three).total_cycles;
  EXPECT_LT(t3, t1);
  EXPECT_GT(static_cast<double>(t1) / static_cast<double>(t3), 2.2);
}

TEST_F(HinchTest, WindowOneDisablesPipelining) {
  NodePtr g = chain_graph(0, 1000);
  auto prog = Program::build(
      *g, registry_, hinch::BuildConfig{.stream_depth = 5, .passes = {}});
  ASSERT_TRUE(prog.is_ok());
  RunConfig narrow;
  narrow.iterations = 20;
  narrow.window = 1;
  RunConfig wide;
  wide.iterations = 20;
  wide.window = 5;
  SimParams sim;
  sim.cores = 3;
  uint64_t t_narrow =
      hinch::run_on_sim(*prog.value(), narrow, sim).total_cycles;
  ProbeBoard::get().clear();
  uint64_t t_wide = hinch::run_on_sim(*prog.value(), wide, sim).total_cycles;
  EXPECT_LT(t_wide, t_narrow);
}

TEST_F(HinchTest, WindowClampedToStreamDepth) {
  NodePtr g = chain_graph();
  auto prog = Program::build(
      *g, registry_, hinch::BuildConfig{.stream_depth = 2, .passes = {}});
  ASSERT_TRUE(prog.is_ok());
  RunConfig run;
  run.iterations = 10;
  run.window = 50;  // would corrupt stream slots if not clamped
  SimResult r = hinch::run_on_sim(*prog.value(), run, SimParams{});
  ProbeState& cons = ProbeBoard::get().state("cons");
  EXPECT_EQ(cons.runs, 10);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(cons.seen_values[i], i);
  EXPECT_GT(r.total_cycles, 0u);
}

TEST_F(HinchTest, ZeroIterationsFinishImmediately) {
  NodePtr g = chain_graph();
  auto prog = Program::build(*g, registry_);
  ASSERT_TRUE(prog.is_ok());
  RunConfig run;
  run.iterations = 0;
  SimResult r = hinch::run_on_sim(*prog.value(), run, SimParams{});
  EXPECT_EQ(r.total_cycles, 0u);
  EXPECT_EQ(r.jobs, 0u);
}

TEST_F(HinchTest, TaskParallelChainsOverlap) {
  // Two independent chains; 2 cores should nearly halve the makespan.
  std::vector<NodePtr> blocks;
  for (int i = 0; i < 2; ++i) {
    std::vector<NodePtr> steps;
    std::string suffix = std::to_string(i);
    steps.push_back(sp::make_leaf(leaf("prod" + suffix, "probe_producer", {},
                                       {{"out", "a" + suffix}},
                                       {{"cost", "2000"}})));
    steps.push_back(sp::make_leaf(leaf("cons" + suffix, "probe_consumer",
                                       {{"in", "a" + suffix}}, {})));
    blocks.push_back(sp::make_seq(std::move(steps)));
  }
  NodePtr g = sp::make_par(ParShape::kTask, 1, std::move(blocks));
  auto prog = Program::build(*g, registry_);
  ASSERT_TRUE(prog.is_ok());
  RunConfig run;
  run.iterations = 10;
  run.window = 1;  // isolate task parallelism from pipelining
  SimParams one;
  one.cores = 1;
  one.sync_costs = false;
  SimParams two;
  two.cores = 2;
  two.sync_costs = false;
  uint64_t t1 = hinch::run_on_sim(*prog.value(), run, one).total_cycles;
  ProbeBoard::get().clear();
  uint64_t t2 = hinch::run_on_sim(*prog.value(), run, two).total_cycles;
  EXPECT_GT(static_cast<double>(t1) / static_cast<double>(t2), 1.7);
}

// --- slices ---------------------------------------------------------------------

TEST_F(HinchTest, SliceCreatesCopiesWithPositions) {
  std::vector<NodePtr> block;
  block.push_back(sp::make_leaf(
      leaf("work", "probe_worker", {{"in", "a"}}, {{"out", "b"}})));
  std::vector<NodePtr> steps;
  steps.push_back(sp::make_leaf(leaf("prod", "probe_producer", {},
                                     {{"out", "a"}})));
  std::vector<NodePtr> one;
  one.push_back(sp::make_seq(std::move(block)));
  steps.push_back(sp::make_par(ParShape::kSlice, 4, std::move(one)));
  steps.push_back(sp::make_leaf(leaf("cons", "probe_consumer",
                                     {{"in", "b"}}, {})));
  NodePtr g = sp::make_seq(std::move(steps));
  auto prog = Program::build(*g, registry_);
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  // prod + 4 worker copies + cons.
  EXPECT_EQ(prog.value()->component_count(), 6);

  RunConfig run;
  run.iterations = 6;
  hinch::run_on_sim(*prog.value(), run, SimParams{});
  for (int i = 0; i < 4; ++i) {
    ProbeState& s = ProbeBoard::get().state("work#" + std::to_string(i));
    EXPECT_EQ(s.runs, 6);
    EXPECT_EQ(s.slice_index, i);
    EXPECT_EQ(s.slice_count, 4);
    // Slice assignment is delivered through the reconfiguration
    // interface (§3.1/§3.3).
    EXPECT_EQ(s.last_reconfig,
              "slice=" + std::to_string(i) + "/4");
  }
}

// --- crossdep --------------------------------------------------------------------

TEST_F(HinchTest, CrossdepWiresNeighbourDependencies) {
  std::vector<NodePtr> blocks;
  blocks.push_back(sp::make_leaf(
      leaf("h", "probe_worker", {{"in", "a"}}, {{"out", "t"}})));
  blocks.push_back(sp::make_leaf(
      leaf("v", "probe_worker", {{"in", "t"}}, {{"out", "b"}})));
  std::vector<NodePtr> steps;
  steps.push_back(sp::make_leaf(leaf("prod", "probe_producer", {},
                                     {{"out", "a"}})));
  steps.push_back(sp::make_par(ParShape::kCrossDep, 4, std::move(blocks)));
  steps.push_back(sp::make_leaf(leaf("cons", "probe_consumer",
                                     {{"in", "b"}}, {})));
  NodePtr g = sp::make_seq(std::move(steps));
  auto prog = Program::build(*g, registry_);
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();

  // Find the task of v-copy 1 (depends on h copies 0, 1, 2) and v-copy 0
  // (depends on h copies 0, 1 only, plus nothing else).
  std::map<std::string, const hinch::Task*> by_label;
  for (const hinch::Task& t : prog.value()->tasks())
    by_label[t.label] = &t;
  ASSERT_TRUE(by_label.count("v#1.1"));
  EXPECT_EQ(by_label["v#1.1"]->preds.size(), 3u);
  ASSERT_TRUE(by_label.count("v#1.0"));
  EXPECT_EQ(by_label["v#1.0"]->preds.size(), 2u);
  ASSERT_TRUE(by_label.count("v#1.3"));
  EXPECT_EQ(by_label["v#1.3"]->preds.size(), 2u);
  // h copies depend only on the producer.
  ASSERT_TRUE(by_label.count("h#0.2"));
  EXPECT_EQ(by_label["h#0.2"]->preds.size(), 1u);

  RunConfig run;
  run.iterations = 5;
  hinch::run_on_sim(*prog.value(), run, SimParams{});
  EXPECT_EQ(ProbeBoard::get().state("cons").runs, 5);
}

// --- groups (§4.1 fusion extension) ----------------------------------------------

TEST_F(HinchTest, GroupRunsComponentsInOneJob) {
  // producer -> group(worker1 -> worker2) -> consumer: 4 components but
  // only 3 tasks, and the group's two workers run back to back.
  std::vector<NodePtr> grouped;
  grouped.push_back(sp::make_leaf(
      leaf("w1", "probe_worker", {{"in", "a"}}, {{"out", "b"}},
           {{"add", "10"}})));
  grouped.push_back(sp::make_leaf(
      leaf("w2", "probe_worker", {{"in", "b"}}, {{"out", "c"}},
           {{"add", "100"}})));
  std::vector<NodePtr> steps;
  steps.push_back(sp::make_leaf(leaf("prod", "probe_producer", {},
                                     {{"out", "a"}})));
  steps.push_back(sp::make_group(std::move(grouped)));
  steps.push_back(sp::make_leaf(leaf("cons", "probe_consumer",
                                     {{"in", "c"}}, {})));
  NodePtr g = sp::make_seq(std::move(steps));
  auto prog = Program::build(*g, registry_);
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  EXPECT_EQ(prog.value()->component_count(), 4);
  EXPECT_EQ(prog.value()->tasks().size(), 3u);

  RunConfig run;
  run.iterations = 8;
  SimResult r = hinch::run_on_sim(*prog.value(), run, SimParams{});
  EXPECT_EQ(r.jobs, 24u);  // 3 tasks x 8 iterations
  ProbeState& cons = ProbeBoard::get().state("cons");
  ASSERT_EQ(cons.runs, 8);
  for (int64_t i = 0; i < 8; ++i)
    EXPECT_EQ(cons.seen_values[i], i + 110);  // both workers applied
}

TEST_F(HinchTest, GroupInsideSliceReplicates) {
  std::vector<NodePtr> grouped;
  grouped.push_back(sp::make_leaf(
      leaf("w1", "probe_worker", {{"in", "a"}}, {{"out", "b"}})));
  grouped.push_back(sp::make_leaf(
      leaf("w2", "probe_worker", {{"in", "b"}}, {{"out", "c"}})));
  std::vector<NodePtr> one;
  one.push_back(sp::make_group(std::move(grouped)));
  std::vector<NodePtr> steps;
  steps.push_back(sp::make_leaf(leaf("prod", "probe_producer", {},
                                     {{"out", "a"}})));
  steps.push_back(sp::make_par(ParShape::kSlice, 3, std::move(one)));
  steps.push_back(sp::make_leaf(leaf("cons", "probe_consumer",
                                     {{"in", "c"}}, {})));
  NodePtr g = sp::make_seq(std::move(steps));
  auto prog = Program::build(*g, registry_);
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  // prod + 3 x (w1, w2) + cons components; prod + 3 group tasks + cons.
  EXPECT_EQ(prog.value()->component_count(), 8);
  EXPECT_EQ(prog.value()->tasks().size(), 5u);
  RunConfig run;
  run.iterations = 4;
  hinch::run_on_sim(*prog.value(), run, SimParams{});
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ProbeBoard::get().state("w1#" + std::to_string(i)).runs, 4);
    EXPECT_EQ(ProbeBoard::get().state("w2#" + std::to_string(i)).runs, 4);
  }
}

TEST_F(HinchTest, GroupChargesAccumulateIntoTheSink) {
  // prod -> group(w1 -> w2) -> cons. Executing the group's job rebinds
  // one context from w1 to w2; both members charge into the one sink.
  std::vector<NodePtr> grouped;
  grouped.push_back(sp::make_leaf(leaf("w1", "probe_worker", {{"in", "a"}},
                                       {{"out", "b"}}, {{"cost", "7"}})));
  grouped.push_back(sp::make_leaf(leaf("w2", "probe_worker", {{"in", "b"}},
                                       {{"out", "c"}}, {{"cost", "11"}})));
  std::vector<NodePtr> steps;
  steps.push_back(sp::make_leaf(leaf("prod", "probe_producer", {},
                                     {{"out", "a"}})));
  steps.push_back(sp::make_group(std::move(grouped)));
  steps.push_back(sp::make_leaf(leaf("cons", "probe_consumer",
                                     {{"in", "c"}}, {})));
  auto built = Program::build(*sp::make_seq(std::move(steps)), registry_);
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  Program& prog = *built.value();
  RunConfig config;
  config.iterations = 1;
  hinch::Scheduler sched(prog, config);
  std::vector<hinch::JobRef> ready = sched.start();
  ASSERT_EQ(ready.size(), 1u);
  {
    // No sink (the thread executor's case): the charge calls are
    // accepted and recorded nowhere.
    ExecContext ctx(sched.job_component(ready[0]), 0, 0, &prog.queues());
    sched.execute(ready[0], ctx);
    ctx.touch_write(0, 0, 64);
    ctx.touch_scratch(128);
    ctx.touch_scratch_read(128);
  }
  ready = sched.complete(ready[0]);
  ASSERT_EQ(ready.size(), 1u);
  const hinch::Task& group = prog.task(ready[0].task);
  ASSERT_EQ(group.components.size(), 2u);

  ExecContext::Charges sink;
  ExecContext ctx(sched.job_component(ready[0]), 0, 0, &prog.queues(),
                  nullptr, &sink);
  sched.execute(ready[0], ctx);
  EXPECT_EQ(sink.compute_cycles, 7u + 11u);
  // The context is left bound to w2: a read resolves against w2's input
  // (stream b), and a rebind back to w1 against stream a.
  ctx.touch_read(0, 0, 16);
  ctx.rebind(&prog.component(group.components[0]));
  ctx.touch_read(0, 16, 32);
  ctx.touch_scratch(256);
  ctx.charge_compute(5);
  EXPECT_EQ(sink.compute_cycles, 7u + 11u + 5u);
  ASSERT_EQ(sink.touches.size(), 2u);
  EXPECT_EQ(sink.touches[0].stream_index, prog.find_stream("b")->index());
  EXPECT_EQ(sink.touches[1].stream_index, prog.find_stream("a")->index());
  EXPECT_EQ(sink.touches[1].offset, 16u);
  EXPECT_EQ(sink.touches[1].len, 32u);
  ASSERT_EQ(sink.scratch.size(), 1u);
  EXPECT_EQ(sink.scratch[0].bytes, 256u);
  EXPECT_TRUE(sink.scratch[0].write);
}

// --- thread executor ---------------------------------------------------------------

class ThreadWorkerCountTest : public HinchTest,
                              public ::testing::WithParamInterface<int> {};

TEST_P(ThreadWorkerCountTest, ProducesSameResults) {
  NodePtr g = chain_graph();
  auto prog = Program::build(*g, registry_);
  ASSERT_TRUE(prog.is_ok());
  RunConfig run;
  run.iterations = 25;
  hinch::ThreadResult r =
      hinch::run_on_threads(*prog.value(), run, GetParam());
  EXPECT_EQ(r.jobs, 75u);
  ProbeState& cons = ProbeBoard::get().state("cons");
  ASSERT_EQ(cons.runs, 25);
  for (int64_t i = 0; i < 25; ++i) EXPECT_EQ(cons.seen_values[i], i);
}

INSTANTIATE_TEST_SUITE_P(Workers, ThreadWorkerCountTest,
                         ::testing::Values(1, 2, 4, 8));

// --- events ----------------------------------------------------------------------

TEST_F(HinchTest, EventQueuesDeliverInOrder) {
  hinch::EventQueue q("test");
  EXPECT_TRUE(q.empty());
  q.push({"a", "1"});
  q.push({"b", "2"});
  EXPECT_EQ(q.size(), 2u);
  auto e1 = q.poll();
  ASSERT_TRUE(e1.has_value());
  EXPECT_EQ(e1->name, "a");
  auto e2 = q.poll();
  EXPECT_EQ(e2->payload, "2");
  EXPECT_FALSE(q.poll().has_value());
}

TEST_F(HinchTest, QueueRegistryCreatesOnDemand) {
  hinch::EventQueueRegistry reg;
  EXPECT_EQ(reg.find("x"), nullptr);
  hinch::EventQueue& q = reg.get_or_create("x");
  EXPECT_EQ(reg.find("x"), &q);
  EXPECT_EQ(&reg.get_or_create("x"), &q);
  EXPECT_EQ(reg.names().size(), 1u);
}

TEST_F(HinchTest, SlicedRowPartitionCoversExactly) {
  for (int rows : {1, 7, 45, 288}) {
    for (int slices : {1, 2, 8, 9, 45}) {
      int covered = 0;
      int prev_end = 0;
      for (int s = 0; s < slices; ++s) {
        int r0 = 0, r1 = 0;
        hinch::slice_rows(rows, s, slices, &r0, &r1);
        EXPECT_EQ(r0, prev_end);
        EXPECT_GE(r1, r0);
        covered += r1 - r0;
        prev_end = r1;
      }
      EXPECT_EQ(covered, rows) << rows << "/" << slices;
    }
  }
}

}  // namespace
