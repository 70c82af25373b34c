// Multi-tile platform model: XML spec loading (positioned diagnostics),
// heterogeneous-platform determinism (run-twice, engine equivalence,
// charge-trace replay, a golden cycle snapshot), the 256-core wide-mask
// regime, the capacity-normalized utilization fix, and the executor's
// guards on the core count and the cache model's directory size.
#include <gtest/gtest.h>

#include "bench/bench_util.hpp"
#include "xspcl/platform_xml.hpp"

namespace {

struct DeathStyle {
  DeathStyle() { ::testing::FLAGS_gtest_death_test_style = "threadsafe"; }
};
DeathStyle g_death_style;

// Mirrors specs/platform_2tile.xml (which the xspclc ctest leg runs):
// one full-speed tile + one half-frequency tile, 4 MiB L2 each.
const char kTwoTileSpec[] = R"(<platform name="spacecake-2tile"
          topology="crossbar" hop_cycles_per_chunk="64">
  <coreclass name="trimedia" cycle_multiplier="1.0"/>
  <coreclass name="lite" cycle_multiplier="2.0"/>
  <tile cores="2" class="trimedia" l2_bytes="4194304"/>
  <tile cores="2" class="lite" l2_bytes="4194304"/>
</platform>)";

// Mirrors specs/platform_256.xml: a 4x4 mesh of 16-core tiles, 1 MiB
// L2 each — 272 presence bits, well past the old 64-bit mask.
const char k256Spec[] = R"(<platform name="spacecake-256" topology="mesh"
          mesh_width="4" hop_cycles_per_chunk="64">
  <tile cores="16" l2_bytes="1048576" count="16"/>
</platform>)";

sim::PlatformConfig load_platform(const char* text) {
  auto result = xspcl::load_platform_string(text);
  SUP_CHECK_MSG(result.is_ok(), result.status().to_string().c_str());
  return std::move(result).take();
}

apps::PipConfig small_pip() {
  apps::PipConfig c = bench::paper_pip(1);
  c.frames = 6;
  return c;
}

hinch::SimResult run_platform(const std::string& spec, int64_t frames,
                              const sim::PlatformConfig& platform,
                              sim::LruImpl impl) {
  auto prog = bench::build_program(spec);
  hinch::RunConfig run;
  run.iterations = frames;
  hinch::SimParams sim;
  sim.platform = platform;
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
  EXPECT_EQ(a.tile_busy, b.tile_busy);
  EXPECT_EQ(a.tile_jobs, b.tile_jobs);
}

TEST(PlatformXml, ParsesFullSpec) {
  sim::PlatformConfig p = load_platform(kTwoTileSpec);
  EXPECT_EQ(p.name, "spacecake-2tile");
  EXPECT_EQ(p.topology, sim::Topology::kCrossbar);
  EXPECT_EQ(p.hop_cycles_per_chunk, 64u);
  ASSERT_EQ(p.classes.size(), 2u);
  EXPECT_EQ(p.classes[0].name, "trimedia");
  EXPECT_DOUBLE_EQ(p.classes[1].cycle_multiplier, 2.0);
  ASSERT_EQ(p.tiles.size(), 2u);
  EXPECT_EQ(p.tiles[0].cores, 2);
  EXPECT_EQ(p.tiles[1].core_class, 1);
  EXPECT_EQ(p.tiles[1].l2_bytes, 4194304u);
  EXPECT_EQ(p.total_cores(), 4);
  EXPECT_EQ(p.tile_map(), (std::vector<int>{0, 0, 1, 1}));
  EXPECT_EQ(p.core_multipliers(), (std::vector<double>{1, 1, 2, 2}));

  sim::PlatformConfig mesh = load_platform(k256Spec);
  EXPECT_EQ(mesh.total_cores(), 256);
  EXPECT_EQ(mesh.tile_count(), 16);
  // Mesh hops: tile 0 = (0,0), tile 15 = (3,3) -> Manhattan 6.
  EXPECT_EQ(mesh.hops(0, 15), 6);
  EXPECT_EQ(mesh.hops(0, 1), 1);
  EXPECT_EQ(mesh.hops(5, 5), 0);
}

TEST(PlatformXml, RingTopology) {
  sim::PlatformConfig p = load_platform(
      R"(<platform topology="ring">
  <tile cores="1" count="6"/>
</platform>)");
  EXPECT_EQ(p.topology, sim::Topology::kRing);
  EXPECT_TRUE(p.classes.empty());  // implicit baseline class
  EXPECT_EQ(p.hops(0, 5), 1);      // ring wraps
  EXPECT_EQ(p.hops(0, 3), 3);
}

// Every structural error must carry the source position of the element
// it concerns ("platform spec at LINE:COL: ..."). An attribute an
// element does not know is an error, not a silently applied default.
TEST(PlatformXml, PositionedParseErrors) {
  struct Case {
    const char* xml;
    const char* want;  // substring of the diagnostic
  };
  const Case cases[] = {
      {"<machine/>", "at 1:1: expected <platform> root"},
      {"<platform topology=\"torus\"><tile cores=\"1\"/></platform>",
       "unknown topology 'torus'"},
      {"<platform dispatch=\"lowest\"><tile cores=\"1\"/></platform>",
       "at 1:1: unknown attribute 'dispatch' of <platform>"},
      {"<platform hop_cycle_per_chunk=\"5000\">\n  <tile cores=\"1\"/>\n"
       "</platform>",
       "at 1:1: unknown attribute 'hop_cycle_per_chunk' of <platform>"},
      {"<platform>\n  <tile cores=\"1\" l2_byte=\"4096\"/>\n</platform>",
       "at 2:3: unknown attribute 'l2_byte' of <tile>"},
      {"<platform>\n  <coreclass name=\"a\" speed=\"2\"/>\n"
       "  <tile cores=\"1\"/>\n</platform>",
       "at 2:3: unknown attribute 'speed' of <coreclass>"},
      {"<platform>\n  <tile cores=\"4294967297\"/>\n</platform>",
       "at 2:3: <tile> cores exceeds kMaxCores (1024)"},
      {"<platform>\n  <tile cores=\"1\" count=\"4294967297\"/>\n"
       "</platform>",
       "at 2:3: count exceeds kMaxCores (1024)"},
      {"<platform>\n  <tile cores=\"1000\"/>\n"
       "  <tile cores=\"16\" count=\"2\"/>\n</platform>",
       "at 3:3: platform exceeds kMaxCores (1024) cores"},
      {"<platform>\n  <tile cores=\"1\" count=\"1024\"/>\n</platform>",
       "at 2:3: platform needs 268101 MiB of cache-model directory"},
      {"<platform>\n  <tile cores=\"1\" l2_bytes=\"1099511627776\"/>\n"
       "</platform>",
       "at 2:3: platform needs 118784 MiB of cache-model directory"},
      {"<platform topology=\"mesh\" mesh_width=\"-1\"><tile cores=\"1\"/>"
       "</platform>",
       "at 1:1: mesh_width must be in [0, 1024]"},
      {"<platform>\n  <tile/>\n</platform>", "at 2:3: <tile> needs cores"},
      {"<platform>\n  <tile cores=\"zero\"/>\n</platform>",
       "at 2:3: attribute 'cores' of <tile>"},
      {"<platform>\n  <tile cores=\"1\" class=\"dsp\"/>\n</platform>",
       "at 2:3: unknown core class 'dsp'"},
      {"<platform>\n  <coreclass name=\"a\" cycle_multiplier=\"0\"/>\n"
       "  <tile cores=\"1\"/>\n</platform>",
       "at 2:3: cycle_multiplier must be positive"},
      {"<platform>\n  <interconnect/>\n</platform>",
       "at 2:3: unknown element <interconnect>"},
      {"<platform/>", "declares no <tile>"},
      {"<platform topology=\"mesh\"><tile cores=\"1\"/></platform>",
       "mesh topology needs mesh_width"},
  };
  for (const Case& c : cases) {
    auto result = xspcl::load_platform_string(c.xml);
    ASSERT_FALSE(result.is_ok()) << c.xml;
    EXPECT_NE(result.status().message().find(c.want), std::string::npos)
        << "diagnostic for\n  " << c.xml << "\nwas\n  "
        << result.status().message();
  }
}

// Two-tile heterogeneous golden: run-twice identity, flat/list engine
// identity, charge-trace replay identity, and pinned absolute numbers
// so a semantic change to multi-tile charging fails loudly.
TEST(PlatformSim, TwoTileHeteroGolden) {
  const std::string spec = apps::pip_xspcl(small_pip());
  const sim::PlatformConfig platform = load_platform(kTwoTileSpec);

  hinch::SimResult a = run_platform(spec, 6, platform, sim::LruImpl::kFlat);
  hinch::SimResult b = run_platform(spec, 6, platform, sim::LruImpl::kFlat);
  expect_same(a, b);
  hinch::SimResult list =
      run_platform(spec, 6, platform, sim::LruImpl::kListReference);
  expect_same(a, list);

  EXPECT_EQ(a.tiles, 2);
  ASSERT_EQ(a.core_multiplier.size(), 4u);
  EXPECT_DOUBLE_EQ(a.core_multiplier[3], 2.0);
  ASSERT_EQ(a.tile_busy.size(), 2u);
  EXPECT_EQ(a.tile_busy[0] + a.tile_busy[1],
            a.core_busy[0] + a.core_busy[1] + a.core_busy[2] +
                a.core_busy[3]);

  // Golden snapshot (produced by the first multi-tile implementation;
  // both engines agree on every field).
  EXPECT_EQ(a.total_cycles, 7472006u);
  EXPECT_EQ(a.mem.accesses, 24072u);
  EXPECT_EQ(a.mem.l1_hits, 46u);
  EXPECT_EQ(a.mem.l2_hits, 9759u);
  EXPECT_EQ(a.mem.remote_hits, 4566u);
  EXPECT_EQ(a.mem.mem_fetches, 14267u);
  EXPECT_EQ(a.mem.invalidations, 146u);
  EXPECT_EQ(a.mem.l2_invalidations, 300u);
  EXPECT_EQ(a.mem.stall_cycles, 11296832u);
  EXPECT_EQ(a.jobs, 354u);

  // Replay identity: a charge trace recorded on the hetero platform
  // replays to identical results on both engines.
  auto prog = bench::build_program(spec);
  hinch::RunConfig run;
  run.iterations = 6;
  hinch::ChargeTrace trace;
  hinch::SimParams record;
  record.platform = platform;
  record.record_trace = &trace;
  hinch::SimResult recorded = hinch::run_on_sim(*prog, run, record);
  expect_same(a, recorded);
  for (sim::LruImpl impl :
       {sim::LruImpl::kFlat, sim::LruImpl::kListReference}) {
    hinch::SimParams replay;
    replay.platform = platform;
    replay.cache.lru_impl = impl;
    replay.replay_trace = &trace;
    hinch::SimResult replayed = hinch::run_on_sim(*prog, run, replay);
    expect_same(recorded, replayed);
  }
}

// Acceptance criterion: a 256-core multi-tile spec simulates to
// completion on both LRU engines with identical stats and cycles.
TEST(PlatformSim, MeshOf256CoresBothEngines) {
  const std::string spec = apps::pip_xspcl(small_pip());
  const sim::PlatformConfig platform = load_platform(k256Spec);
  hinch::SimResult flat =
      run_platform(spec, 6, platform, sim::LruImpl::kFlat);
  hinch::SimResult list =
      run_platform(spec, 6, platform, sim::LruImpl::kListReference);
  expect_same(flat, list);
  EXPECT_EQ(flat.tiles, 16);
  EXPECT_EQ(flat.core_busy.size(), 256u);
  EXPECT_GT(flat.total_cycles, 0u);
}

// Remote-tile L2 hits must be charged the interconnect cost: the same
// sharing pattern on one tile vs two tiles differs exactly by hop
// cycles, and the remote_hits counter picks it up.
TEST(PlatformSim, RemoteFetchChargesHops) {
  const sim::PlatformConfig one_tile = sim::PlatformConfig::homogeneous(1, 2);
  sim::PlatformConfig two_tiles = sim::PlatformConfig::homogeneous(2, 1);
  two_tiles.hop_cycles_per_chunk = 64;
  for (sim::LruImpl impl :
       {sim::LruImpl::kFlat, sim::LruImpl::kListReference}) {
    sim::CacheConfig cache;
    cache.lru_impl = impl;
    sim::MemorySystem local(cache, one_tile);
    sim::MemorySystem remote(cache, two_tiles);
    sim::RegionId region = 0;
    for (sim::MemorySystem* m : {&local, &remote}) {
      region = m->register_region(4096, "buf");  // same id in both
      m->access(0, region, 0, 4096, true);   // core 0: 4 chunks from mem
      m->access(1, region, 0, 4096, false);  // core 1: served from L2
    }
    EXPECT_EQ(local.stats().l2_hits, 4u);
    EXPECT_EQ(local.stats().remote_hits, 0u);
    EXPECT_EQ(remote.stats().l2_hits, 4u);
    EXPECT_EQ(remote.stats().remote_hits, 4u);  // core 1 is on tile 1
    // 4 chunks * (192 L2 + 1 hop * 64) vs 4 * 192.
    EXPECT_EQ(remote.stats().stall_cycles - local.stats().stall_cycles,
              4u * 64u);
    // A write from core 0 now invalidates tile 1's L2 copies.
    local.access(0, region, 0, 4096, true);
    remote.access(0, region, 0, 4096, true);
    EXPECT_EQ(local.stats().l2_invalidations, 0u);
    EXPECT_EQ(remote.stats().l2_invalidations, 4u);
  }
}

// The utilization fix: busy cycles on a slow core represent less work,
// so heterogeneous platforms normalize by the cycle multiplier.
// Homogeneous results keep the exact legacy expression.
TEST(SimResultUtilization, CapacityNormalized) {
  hinch::SimResult r;
  r.total_cycles = 100;
  r.core_busy = {100, 50};
  EXPECT_DOUBLE_EQ(r.utilization(), 0.75);  // legacy: (100+50)/(100*2)

  r.core_multiplier = {1.0, 1.0};  // explicit homogeneous: unchanged
  EXPECT_DOUBLE_EQ(r.utilization(), 0.75);

  // Core 1 runs at half frequency (multiplier 2): its 50 busy cycles
  // are 25 baseline-equivalents of work, its capacity 50 equivalents.
  // work = 100 + 25 = 125, capacity = 100 + 50 -> 125/150.
  r.core_multiplier = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(r.utilization(), (100.0 + 25.0) / 150.0);

  // Fully-busy hetero platform is 100% utilized, not overstated.
  r.core_busy = {100, 100};
  EXPECT_DOUBLE_EQ(r.utilization(), 1.0);
}

// SimParams.cores is shorthand for a one-tile platform: the run is the
// same machine as the explicit PlatformConfig and reports its one tile.
TEST(PlatformSim, CoresOnlyRunIsOneTilePlatform) {
  const std::string spec = apps::pip_xspcl(small_pip());
  hinch::SimResult explicit_platform =
      run_platform(spec, 6, sim::PlatformConfig::homogeneous(1, 2),
                   sim::LruImpl::kFlat);
  auto prog = bench::build_program(spec);
  hinch::RunConfig run;
  run.iterations = 6;
  hinch::SimParams params;
  params.cores = 2;
  hinch::SimResult cores_only = hinch::run_on_sim(*prog, run, params);
  expect_same(explicit_platform, cores_only);
  EXPECT_EQ(cores_only.tiles, 1);
  ASSERT_EQ(cores_only.tile_jobs.size(), 1u);
  EXPECT_EQ(cores_only.tile_jobs[0], cores_only.jobs);
}

TEST(SimGuards, CoresConflictingWithPlatformAborts) {
  const std::string spec = apps::pip_xspcl(small_pip());
  auto prog = bench::build_program(spec);
  hinch::RunConfig run;
  run.iterations = 2;
  hinch::SimParams params;
  params.platform = sim::PlatformConfig::homogeneous(2, 2);
  params.cores = 3;
  EXPECT_DEATH(hinch::run_on_sim(*prog, run, params),
               "conflicts with the platform");

  // The XML loader's kMaxCores bound holds for SimParams.cores too.
  hinch::SimParams too_many;
  too_many.cores = sim::kMaxCores + 1;
  EXPECT_DEATH(hinch::run_on_sim(*prog, run, too_many), "kMaxCores");
}

// The XML loader's directory bound guards platforms built in code too,
// before the cache model allocates anything. Every platform of at most
// kMaxCores cores on one default tile fits, and the committed 256-core
// platform needs a few dozen MB.
TEST(SimGuards, DirectoryBoundAborts) {
  const sim::CacheConfig cache;
  EXPECT_LE(sim::MemorySystem::directory_bytes(
                cache, sim::PlatformConfig::homogeneous(1, sim::kMaxCores)),
            sim::kMaxDirectoryBytes);
  EXPECT_LT(sim::MemorySystem::directory_bytes(cache, load_platform(k256Spec)),
            uint64_t{64} << 20);
  EXPECT_DEATH(
      sim::MemorySystem(cache, sim::PlatformConfig::homogeneous(1024, 1)),
      "kMaxDirectoryBytes");
}

}  // namespace
