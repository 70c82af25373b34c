// Multi-tile platform scaling bench — the "break the 63-core ceiling"
// characterization (ROADMAP: scaling figures past one tile).
//
// Three axes, all in simulated cycles on the same recorded workload:
//
//   speedup_curve  JPiP-1 speedup over 1 core at 1..256 cores on a
//                  single tile — the curve the old `cores < 64` guard
//                  cut off at 63. Engine equivalence (flat vs list) is
//                  asserted at the 64/256-core points.
//   tile_scaling   64 cores arranged as 1/2/4/8/16 tiles with the total
//                  L2 capacity held fixed (16 MiB split per tile,
//                  crossbar, 64 cyc/chunk/hop) — what the interconnect
//                  costs once the die is partitioned.
//   hetero         a 2-tile heterogeneous platform (4 baseline cores +
//                  4 half-frequency cores) — how far half the cores
//                  running at half speed falls short of 8 full cores.
//
// The expensive part — executing the media kernels — happens once, in
// one 1-core recording run; every sweep point re-simulates from the
// charge trace (replay is keyed by (task, iteration), so it is valid
// across core counts and platforms). That is what makes the 256-core
// points affordable.
//
// Emits BENCH_platform.json (simulated cycles, not wall-clock).
// `bench_platform --smoke` (CI) runs fewer frames with the same gates.
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sim/platform.hpp"
#include "support/strings.hpp"

namespace {

struct Meas {
  uint64_t cycles = 0;
  sim::MemStats mem;
  double utilization = 0;
  uint64_t jobs = 0;
  std::vector<uint64_t> tile_jobs;
};

// One replayed sweep point. The Program is rebuilt per point: components
// are stateful during execution, so points never share one (the same
// rule as every parallel_sweep harness, applied here to a serial loop —
// the big-N points each hold a few hundred MB of cache-model state, so
// running them one at a time bounds peak memory).
Meas replay_point(const std::string& spec, int64_t frames,
                  const hinch::ChargeTrace& trace, int cores,
                  const sim::PlatformConfig& platform, sim::LruImpl impl) {
  auto prog = bench::build_program(spec);
  hinch::RunConfig run;
  run.iterations = frames;
  hinch::SimParams sim;
  sim.cores = platform.empty() ? cores : 1;  // platform carries the count
  sim.platform = platform;
  sim.cache.lru_impl = impl;
  sim.replay_trace = const_cast<hinch::ChargeTrace*>(&trace);
  hinch::SimResult r = hinch::run_on_sim(*prog, run, sim);
  return {r.total_cycles, r.mem, r.utilization(), r.jobs, r.tile_jobs};
}

// `tiles` tiles of `cores_per_tile` baseline cores with the *total* L2
// capacity pinned to 16 MiB — splitting the die must not grow the cache.
sim::PlatformConfig split_die(int tiles, int cores_per_tile) {
  sim::PlatformConfig p = sim::PlatformConfig::homogeneous(tiles, cores_per_tile);
  p.name = "split" + std::to_string(tiles);
  for (sim::TileSpec& t : p.tiles)
    t.l2_bytes = (16ull << 20) / static_cast<uint64_t>(tiles);
  return p;
}

sim::PlatformConfig hetero_2tile() {
  sim::PlatformConfig p;
  p.name = "hetero2";
  p.classes = {{"fast", 1.0}, {"slow", 2.0}};
  // The slow tile gets the low core indices on purpose: lowest-idle-core
  // dispatch then lands work on the half-frequency cores first.
  p.tiles = {{4, 1, 8ull << 20}, {4, 0, 8ull << 20}};
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_platform.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      out = argv[i];
  }

  apps::JpipConfig cfg = bench::paper_jpip(1);
  if (smoke) cfg.frames = 4;
  std::printf("Platform scaling bench (JPiP-1, %d frames%s)\n", cfg.frames,
              smoke ? ", smoke" : "");
  const std::string spec = apps::jpip_xspcl(cfg);

  // Record once with the kernels executing; every point below replays.
  hinch::ChargeTrace trace;
  uint64_t t1 = 0;
  {
    auto prog = bench::build_program(spec);
    hinch::RunConfig run;
    run.iterations = cfg.frames;
    hinch::SimParams sim;
    sim.cores = 1;
    sim.record_trace = &trace;
    t1 = hinch::run_on_sim(*prog, run, sim).total_cycles;
  }
  std::printf("recorded 1-core baseline: %.1f Mcyc, %zu jobs\n\n",
              bench::mcycles(t1), trace.jobs.size());

  bool ok = true;
  auto gate = [&ok](bool cond, const char* msg) {
    if (!cond) {
      std::fprintf(stderr, "bench_platform: FAIL %s\n", msg);
      ok = false;
    }
  };

  // --- speedup curve to 256 cores -------------------------------------------
  const std::vector<int> curve_cores = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  std::vector<Meas> curve;
  std::printf("%8s %12s %8s %12s\n", "cores", "Mcycles", "speedup", "util");
  for (int cores : curve_cores) {
    Meas m = replay_point(spec, cfg.frames, trace, cores, {},
                          sim::LruImpl::kFlat);
    if (cores == 64 || cores == 256) {
      Meas list = replay_point(spec, cfg.frames, trace, cores, {},
                               sim::LruImpl::kListReference);
      gate(m.cycles == list.cycles && m.mem == list.mem,
           "flat and list engines disagree past the old 63-core ceiling");
    }
    curve.push_back(m);
    std::printf("%8d %12.1f %7.2fx %11.1f%%\n", cores,
                bench::mcycles(m.cycles),
                static_cast<double>(t1) / static_cast<double>(m.cycles),
                100.0 * m.utilization);
  }
  gate(curve[0].cycles == t1, "1-core replay diverges from the recording");
  gate(curve.back().cycles <= curve[0].cycles,
       "256 cores slower than 1 core");

  // --- tile-count scaling at 64 cores ---------------------------------------
  const std::vector<int> tile_counts = {1, 2, 4, 8, 16};
  std::vector<Meas> tiled;
  std::printf("\n%8s %12s %12s %14s\n", "tiles", "Mcycles", "remote_hits",
              "l2_invals");
  for (int tiles : tile_counts) {
    Meas m = replay_point(spec, cfg.frames, trace, 0,
                          split_die(tiles, 64 / tiles), sim::LruImpl::kFlat);
    tiled.push_back(m);
    std::printf("%8d %12.1f %12llu %14llu\n", tiles,
                bench::mcycles(m.cycles),
                static_cast<unsigned long long>(m.mem.remote_hits),
                static_cast<unsigned long long>(m.mem.l2_invalidations));
  }
  gate(tiled[0].mem.remote_hits == 0, "remote hits on a one-tile platform");
  // An explicit one-tile platform with the full 16 MiB L2 is the same
  // machine as SimParams.cores = 64 (curve_cores[6]).
  gate(tiled[0].cycles == curve[6].cycles && tiled[0].mem == curve[6].mem,
       "one-tile platform diverges from SimParams.cores");
  gate(tiled[1].mem.remote_hits > 0,
       "no remote traffic on a two-tile platform");
  gate(tiled.back().cycles >= tiled[0].cycles,
       "16-way split beat the unified tile (interconnect charged < 0?)");

  // --- heterogeneous platform ----------------------------------------------
  const Meas hetero = replay_point(spec, cfg.frames, trace, 0, hetero_2tile(),
                                   sim::LruImpl::kFlat);
  std::printf("\n%10s %12s %12s %12s\n", "platform", "Mcycles", "util",
              "fast_share");
  std::printf("%10s %12.1f %11.1f%% %11.1f%%\n", "hetero2",
              bench::mcycles(hetero.cycles), 100.0 * hetero.utilization,
              100.0 * static_cast<double>(hetero.tile_jobs[1]) /
                  static_cast<double>(hetero.jobs));
  // A finishing core pulls the next job itself, so the fast tile, which
  // drains twice as fast, ends up with the majority of the jobs even
  // though idle slow cores are offered work first.
  gate(hetero.tile_jobs[1] > hetero.tile_jobs[0],
       "the fast tile did not take the majority of the jobs");

  // --- machine-readable artifact --------------------------------------------
  {
    FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_platform: cannot open %s\n", out.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"platform\",\n");
    std::fprintf(f, "  \"clock\": \"simulated_cycles\",\n");
    std::fprintf(f,
                 "  \"context\": {\"app\": \"jpip1\", \"frames\": %d, "
                 "\"baseline_cycles\": %llu, \"sampling\": "
                 "\"charge-trace replay\"},\n",
                 cfg.frames, static_cast<unsigned long long>(t1));
    std::fprintf(f, "  \"speedup_curve\": [\n");
    for (size_t i = 0; i < curve_cores.size(); ++i)
      std::fprintf(f,
                   "    {\"cores\": %d, \"cycles\": %llu, \"speedup\": %s, "
                   "\"utilization\": %s}%s\n",
                   curve_cores[i],
                   static_cast<unsigned long long>(curve[i].cycles),
                   support::format_double(static_cast<double>(t1) /
                                          static_cast<double>(curve[i].cycles))
                       .c_str(),
                   support::format_double(curve[i].utilization).c_str(),
                   i + 1 < curve_cores.size() ? "," : "");
    std::fprintf(f, "  ],\n  \"tile_scaling\": [\n");
    for (size_t i = 0; i < tile_counts.size(); ++i)
      std::fprintf(f,
                   "    {\"tiles\": %d, \"cores\": 64, \"cycles\": %llu, "
                   "\"remote_hits\": %llu, \"l2_invalidations\": %llu}%s\n",
                   tile_counts[i],
                   static_cast<unsigned long long>(tiled[i].cycles),
                   static_cast<unsigned long long>(tiled[i].mem.remote_hits),
                   static_cast<unsigned long long>(
                       tiled[i].mem.l2_invalidations),
                   i + 1 < tile_counts.size() ? "," : "");
    std::fprintf(f,
                 "  ],\n  \"hetero\": {\"cycles\": %llu, "
                 "\"utilization\": %s, \"jobs\": %llu, "
                 "\"fast_tile_jobs\": %llu}\n}\n",
                 static_cast<unsigned long long>(hetero.cycles),
                 support::format_double(hetero.utilization).c_str(),
                 static_cast<unsigned long long>(hetero.jobs),
                 static_cast<unsigned long long>(hetero.tile_jobs[1]));
    std::fclose(f);
    std::printf("\nwrote %s\n", out.c_str());
  }

  bench::teardown();
  if (!ok) return 1;
  std::printf("OK\n");
  return 0;
}
