// Determinism regression tests for the simulator hot path: repeated
// runs, both LRU cache engines, charge-trace replay, and the parallel
// sweep driver must all produce identical simulated results, and a
// golden snapshot pins the absolute cycle counts of one small
// configuration so an accidental semantic change to the cache model or
// event engine fails loudly instead of silently shifting every figure.
#include <gtest/gtest.h>

#include <cstdlib>

#include "bench/bench_util.hpp"
#include "hinch/region_table.hpp"

namespace {

apps::PipConfig small_pip() {
  apps::PipConfig c = bench::paper_pip(1);
  c.frames = 6;
  return c;
}

apps::JpipConfig small_jpip() {
  apps::JpipConfig c = bench::paper_jpip(1);
  c.frames = 3;
  return c;
}

hinch::SimResult run_once(const std::string& spec, int64_t frames, int cores,
                          sim::LruImpl impl) {
  auto prog = bench::build_program(spec);
  hinch::RunConfig run;
  run.iterations = frames;
  hinch::SimParams sim;
  sim.cores = cores;
  sim.cache.lru_impl = impl;
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
  hinch::SimResult a = run_once(spec, 6, 2, sim::LruImpl::kFlat);
  hinch::SimResult b = run_once(spec, 6, 2, sim::LruImpl::kFlat);
  expect_same(a, b);
}

TEST(SimDeterminism, LruEnginesAgree) {
  for (int cores : {1, 3}) {
    const std::string pip = apps::pip_xspcl(small_pip());
    expect_same(run_once(pip, 6, cores, sim::LruImpl::kFlat),
                run_once(pip, 6, cores, sim::LruImpl::kListReference));
    const std::string jpip = apps::jpip_xspcl(small_jpip());
    expect_same(run_once(jpip, 3, cores, sim::LruImpl::kFlat),
                run_once(jpip, 3, cores, sim::LruImpl::kListReference));
  }
}

// The widest machine the model holds: at sim::kMaxCores cores the L1
// bits and the L2 bit fill the flat engine's whole 64-bit presence word,
// and it must stay stat-identical to the reference engine.
TEST(SimDeterminism, FullMaskEnginesAgree) {
  const std::string pip = apps::pip_xspcl(small_pip());
  expect_same(run_once(pip, 6, sim::kMaxCores, sim::LruImpl::kFlat),
              run_once(pip, 6, sim::kMaxCores, sim::LruImpl::kListReference));
  const std::string jpip = apps::jpip_xspcl(small_jpip());
  expect_same(run_once(jpip, 3, sim::kMaxCores, sim::LruImpl::kFlat),
              run_once(jpip, 3, sim::kMaxCores, sim::LruImpl::kListReference));
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
  hinch::SimResult over =
      run_once(pip, 2, sim::kMaxCores + 1, sim::LruImpl::kFlat);
  EXPECT_EQ(over.core_busy.size(), static_cast<size_t>(sim::kMaxCores));
  expect_same(over, run_once(pip, 2, sim::kMaxCores, sim::LruImpl::kFlat));
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

TEST(SimDeterminism, SequentialEnginesAgree) {
  sim::CacheConfig flat;
  flat.lru_impl = sim::LruImpl::kFlat;
  sim::CacheConfig list;
  list.lru_impl = sim::LruImpl::kListReference;
  apps::SeqResult a = apps::run_pip_sequential(small_pip(), flat);
  apps::SeqResult b = apps::run_pip_sequential(small_pip(), list);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_TRUE(a.mem == b.mem);
}

// Golden snapshot: PiP-1 at paper scale, 6 frames, 2 cores. These
// numbers were produced by the list-based seed implementation and must
// never drift — any change here is a semantic change to the cycle
// model, not an optimization.
TEST(SimDeterminism, GoldenCycleSnapshot) {
  const std::string spec = apps::pip_xspcl(small_pip());
  hinch::SimResult r = run_once(spec, 6, 2, sim::LruImpl::kFlat);
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

  for (sim::LruImpl impl :
       {sim::LruImpl::kFlat, sim::LruImpl::kListReference}) {
    hinch::SimParams replay;
    replay.cores = 2;
    replay.cache.lru_impl = impl;
    replay.replay_trace = &trace;
    hinch::SimResult replayed = hinch::run_on_sim(*prog, run, replay);
    EXPECT_EQ(replayed.total_cycles, recorded.total_cycles);
    EXPECT_TRUE(replayed.mem == recorded.mem);
    EXPECT_EQ(replayed.core_busy, recorded.core_busy);
    EXPECT_EQ(replayed.queue_wait_cycles, recorded.queue_wait_cycles);
    EXPECT_EQ(replayed.jobs, recorded.jobs);
    EXPECT_EQ(replayed.task_cycles, recorded.task_cycles);
  }
}

TEST(SimDeterminism, SeqTraceReplayMatches) {
  apps::SeqTrace trace;
  apps::SeqResult recorded =
      apps::run_pip_sequential(small_pip(), {}, &trace);
  EXPECT_GT(trace.ops.size(), 0u);
  for (sim::LruImpl impl :
       {sim::LruImpl::kFlat, sim::LruImpl::kListReference}) {
    sim::CacheConfig cache;
    cache.lru_impl = impl;
    apps::SeqReplay replayed = apps::replay_seq_trace(trace, cache);
    EXPECT_EQ(replayed.cycles, recorded.cycles);
    EXPECT_TRUE(replayed.mem == recorded.mem);
  }
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

TEST(RegionStats, SimRunUsesDescriptiveLabels) {
  // The RegionTable registers streams/scratch with stream:<i>:slot<s>
  // and scratch:task<t> labels; spot-check via a tiny direct table.
  sim::MemorySystem mem(sim::CacheConfig{}, 1);
  hinch::RegionTable table(&mem, 4);
  table.stream_region(2, 5, 1024);
  table.scratch_region(7, 2048);
  std::vector<sim::RegionStats> rs = mem.region_stats();
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].label, "stream:2:slot1");
  EXPECT_EQ(rs[1].label, "scratch:task7");
}

// The parallel sweep driver must return the same results regardless of
// worker count. This is also the designated TSan workload for
// concurrent simulator instances.
TEST(ParallelSweep, DeterministicAcrossWorkerCounts) {
  const std::string spec = apps::pip_xspcl(small_pip());
  auto sweep = [&] {
    return bench::parallel_sweep(6, [&](int idx) -> uint64_t {
      int cores = idx % 3 + 1;
      sim::LruImpl impl =
          idx < 3 ? sim::LruImpl::kFlat : sim::LruImpl::kListReference;
      return run_once(spec, 4, cores, impl).total_cycles;
    });
  };
  setenv("XSPCL_SWEEP_THREADS", "1", 1);
  std::vector<uint64_t> serial = sweep();
  setenv("XSPCL_SWEEP_THREADS", "4", 1);
  std::vector<uint64_t> threaded = sweep();
  unsetenv("XSPCL_SWEEP_THREADS");
  EXPECT_EQ(serial, threaded);
  // flat (points 0-2) and list (points 3-5) agree per core count.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(serial[i], serial[i + 3]);
}

}  // namespace
