// Determinism regression tests for the simulator hot path: repeated
// runs, charge-trace replay, and the parallel sweep driver must all
// produce identical simulated results, and a golden snapshot pins the
// absolute cycle counts of one small configuration so an accidental
// semantic change to the cache model or event loop fails loudly instead
// of silently shifting every figure. The cache model's own oracle is
// CacheEquivalenceTest (test_sim.cpp).
#include <gtest/gtest.h>

#include <cstdlib>
#include <regex>
#include <set>

#include "bench/bench_util.hpp"

namespace {

apps::PipConfig small_pip() {
  apps::PipConfig c = bench::paper_pip(1);
  c.frames = 6;
  return c;
}

hinch::SimResult run_once(const std::string& spec, int64_t frames, int cores) {
  auto prog = bench::build_program(spec);
  hinch::RunConfig run;
  run.iterations = frames;
  hinch::SimParams sim;
  sim.cores = cores;
  return hinch::run_on_sim(*prog, run, sim);
}

void expect_same(const hinch::SimResult& a, const hinch::SimResult& b) {
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_TRUE(a.mem == b.mem);
  EXPECT_EQ(a.core_busy, b.core_busy);
  EXPECT_EQ(a.queue_wait_cycles, b.queue_wait_cycles);
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.task_cycles, b.task_cycles);
  EXPECT_EQ(a.task_runs, b.task_runs);
  EXPECT_EQ(a.sched.jobs_executed, b.sched.jobs_executed);
  EXPECT_EQ(a.sched.jobs_skipped, b.sched.jobs_skipped);
}

TEST(SimDeterminism, RepeatedRunsIdentical) {
  const std::string spec = apps::pip_xspcl(small_pip());
  hinch::SimResult a = run_once(spec, 6, 2);
  hinch::SimResult b = run_once(spec, 6, 2);
  expect_same(a, b);
}

// One core past the presence word is a checked abort in the cache
// model, not a silently truncated mask.
TEST(SimGuards, MemorySystemAboveMaxCoresAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(sim::MemorySystem(sim::CacheConfig{}, sim::kMaxCores + 1),
               "kMaxCores");
}

// A run asked for more cores than one tile holds (a caller that sizes
// the machine from the host's CPU count) simulates a full tile.
TEST(SimGuards, CoresAboveMaxSimulateAFullTile) {
  const std::string pip = apps::pip_xspcl(small_pip());
  hinch::SimResult over = run_once(pip, 2, sim::kMaxCores + 1);
  EXPECT_EQ(over.core_busy.size(), static_cast<size_t>(sim::kMaxCores));
  expect_same(over, run_once(pip, 2, sim::kMaxCores));
}

// Utilization is the summed busy cycles over the capacity of every core
// for the whole run.
TEST(SimResultUtilization, SummedBusyOverCapacity) {
  hinch::SimResult r;
  EXPECT_DOUBLE_EQ(r.utilization(), 0.0);
  r.total_cycles = 100;
  r.core_busy = {100, 50};
  EXPECT_DOUBLE_EQ(r.utilization(), 0.75);  // (100 + 50) / (100 * 2)
}

// Golden snapshot: PiP-1 at paper scale, 6 frames, 2 cores. These
// numbers were produced by the list-based seed implementation and must
// never drift — any change here is a semantic change to the cycle
// model, not an optimization.
TEST(SimDeterminism, GoldenCycleSnapshot) {
  const std::string spec = apps::pip_xspcl(small_pip());
  hinch::SimResult r = run_once(spec, 6, 2);
  EXPECT_EQ(r.total_cycles, 11388050u);
  EXPECT_EQ(r.mem.accesses, 24072u);
  EXPECT_EQ(r.mem.l1_hits, 185u);
  EXPECT_EQ(r.mem.l2_hits, 11222u);
  EXPECT_EQ(r.mem.mem_fetches, 12665u);
  EXPECT_EQ(r.mem.invalidations, 65u);
  EXPECT_EQ(r.mem.stall_cycles, 10260224u);
  EXPECT_EQ(r.jobs, 354u);

  apps::SeqResult s = apps::run_pip_sequential(small_pip());
  EXPECT_EQ(s.cycles, 17098944u);
}

TEST(SimDeterminism, ChargeTraceReplayMatches) {
  const std::string spec = apps::pip_xspcl(small_pip());
  auto prog = bench::build_program(spec);
  hinch::RunConfig run;
  run.iterations = 6;

  hinch::ChargeTrace trace;
  hinch::SimParams record;
  record.cores = 2;
  record.record_trace = &trace;
  hinch::SimResult recorded = hinch::run_on_sim(*prog, run, record);
  EXPECT_GT(trace.jobs.size(), 0u);

  hinch::SimParams replay;
  replay.cores = 2;
  replay.replay_trace = &trace;
  hinch::SimResult replayed = hinch::run_on_sim(*prog, run, replay);
  EXPECT_EQ(replayed.total_cycles, recorded.total_cycles);
  EXPECT_TRUE(replayed.mem == recorded.mem);
  EXPECT_EQ(replayed.core_busy, recorded.core_busy);
  EXPECT_EQ(replayed.queue_wait_cycles, recorded.queue_wait_cycles);
  EXPECT_EQ(replayed.jobs, recorded.jobs);
  EXPECT_EQ(replayed.task_cycles, recorded.task_cycles);
}

TEST(SimDeterminism, SeqTraceReplayMatches) {
  apps::SeqTrace trace;
  apps::SeqResult recorded =
      apps::run_pip_sequential(small_pip(), {}, &trace);
  EXPECT_GT(trace.ops.size(), 0u);
  apps::SeqReplay replayed = apps::replay_seq_trace(trace, {});
  EXPECT_EQ(replayed.cycles, recorded.cycles);
  EXPECT_TRUE(replayed.mem == recorded.mem);
}

TEST(RegionStats, BreakdownMatchesTotals) {
  sim::MemorySystem mem(sim::CacheConfig{}, 2);
  sim::RegionId a = mem.register_region(64 * 1024, "stream:0:slot0");
  sim::RegionId b = mem.register_region(32 * 1024, "scratch:task3");
  mem.access(0, a, 0, 64 * 1024, false);
  mem.access(1, a, 0, 64 * 1024, false);
  mem.access(0, b, 0, 32 * 1024, true);
  mem.release_region(b);

  std::vector<sim::RegionStats> rs = mem.region_stats();
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].label, "stream:0:slot0");
  EXPECT_EQ(rs[1].label, "scratch:task3");
  EXPECT_TRUE(rs[0].active);
  EXPECT_FALSE(rs[1].active);  // counters retained after release

  uint64_t accesses = 0, l1 = 0, l2 = 0, fetches = 0, inval = 0;
  sim::Cycles stalls = 0;
  for (const sim::RegionStats& r : rs) {
    accesses += r.accesses;
    l1 += r.l1_hits;
    l2 += r.l2_hits;
    fetches += r.mem_fetches;
    inval += r.invalidations;
    stalls += r.stall_cycles;
  }
  const sim::MemStats& total = mem.stats();
  EXPECT_EQ(accesses, total.accesses);
  EXPECT_EQ(l1, total.l1_hits);
  EXPECT_EQ(l2, total.l2_hits);
  EXPECT_EQ(fetches, total.mem_fetches);
  EXPECT_EQ(inval, total.invalidations);
  EXPECT_EQ(stalls, total.stall_cycles);
}

// Builds `spec` with the given build config; aborts the test on error.
std::unique_ptr<hinch::Program> build_with(
    const std::string& spec, const hinch::Program::BuildConfig& build) {
  components::register_standard_globally();
  auto prog = xspcl::build_program(spec, hinch::ComponentRegistry::global(),
                                   build);
  EXPECT_TRUE(prog.is_ok()) << prog.status().to_string();
  return prog.is_ok() ? std::move(prog).take() : nullptr;
}

TEST(RegionStats, SimRunUsesStreamSlotAndScratchLabels) {
  // run_on_sim registers one region per touched (stream, ring slot),
  // labelled stream:<i>:slot<s>, and one per task that charges scratch,
  // labelled scratch:task<t>. A JPiP fused for one core has both: its
  // two fused decode chains keep their coefficients in scratch.
  apps::JpipConfig c;
  c.width = 128;
  c.height = 96;
  c.frames = 4;
  c.factor = 8;
  c.slices = 4;
  c.clip_frames = 2;
  hinch::Program::BuildConfig build;
  build.passes.fuse_kernels = true;
  build.passes.kernel_patterns = &components::standard_fusions();
  auto prog = build_with(apps::jpip_xspcl(c), build);
  ASSERT_NE(prog, nullptr);
  hinch::RunConfig run;
  run.iterations = c.frames;
  hinch::SimResult r = hinch::run_on_sim(*prog, run, hinch::SimParams{});

  const std::regex stream_label("stream:([0-9]+):slot([0-9]+)");
  const std::regex scratch_label("scratch:task([0-9]+)");
  std::set<int> scratch_tasks;
  int stream_regions = 0;
  for (const sim::RegionStats& region : r.regions) {
    std::smatch m;
    if (std::regex_match(region.label, m, stream_label)) {
      EXPECT_LT(std::stoul(m[1]), prog->streams().size()) << region.label;
      EXPECT_LT(std::stoi(m[2]), prog->stream_depth()) << region.label;
      ++stream_regions;
    } else if (std::regex_match(region.label, m, scratch_label)) {
      const int task = std::stoi(m[1]);
      ASSERT_LT(static_cast<size_t>(task), prog->tasks().size());
      EXPECT_NE(prog->task(task).label.find("/dec+"), std::string::npos)
          << prog->task(task).label;
      scratch_tasks.insert(task);
    } else {
      ADD_FAILURE() << "unexpected region label " << region.label;
    }
  }
  EXPECT_GT(stream_regions, 0);
  EXPECT_EQ(scratch_tasks.size(), 2u);  // bg/dec+... and pip1dec/dec+...
}

TEST(RegionStats, DeepStreamsRegisterEverySlot) {
  // Every (stream, slot) of a 300-deep ring gets its own region. A
  // region key that once packed the stream index only 8 bits above the
  // slot aliased slot 260 of stream 0 onto slot 4 of stream 1, so the
  // cache model counted two buffers as one.
  apps::BlurConfig c;
  c.width = 32;
  c.height = 16;
  c.slices = 2;
  c.clip_frames = 2;
  hinch::Program::BuildConfig build;
  build.stream_depth = 300;
  auto prog = build_with(apps::blur_xspcl(c), build);
  ASSERT_NE(prog, nullptr);
  hinch::RunConfig run;
  run.iterations = 600;
  hinch::SimResult r = hinch::run_on_sim(*prog, run, hinch::SimParams{});

  std::set<std::string> labels;
  size_t active = 0;
  for (const sim::RegionStats& region : r.regions) {
    if (region.label.rfind("stream:", 0) != 0) continue;
    labels.insert(region.label);
    if (region.active) ++active;
  }
  const size_t want = prog->streams().size() * 300;
  EXPECT_EQ(labels.size(), want);
  EXPECT_EQ(active, want);  // one live region per (stream, slot)
  EXPECT_EQ(labels.count("stream:0:slot260"), 1u);
  EXPECT_EQ(labels.count("stream:1:slot4"), 1u);
}

// The parallel sweep driver must return the same results regardless of
// worker count. This is also the designated TSan workload for
// concurrent simulator instances.
TEST(ParallelSweep, DeterministicAcrossWorkerCounts) {
  const std::string spec = apps::pip_xspcl(small_pip());
  auto sweep = [&] {
    return bench::parallel_sweep(6, [&](int idx) -> uint64_t {
      return run_once(spec, 4, idx % 3 + 1).total_cycles;
    });
  };
  setenv("XSPCL_SWEEP_THREADS", "1", 1);
  std::vector<uint64_t> serial = sweep();
  setenv("XSPCL_SWEEP_THREADS", "4", 1);
  std::vector<uint64_t> threaded = sweep();
  unsetenv("XSPCL_SWEEP_THREADS");
  EXPECT_EQ(serial, threaded);
  // Points i and i + 3 simulate the same core count.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(serial[i], serial[i + 3]);
}

}  // namespace
