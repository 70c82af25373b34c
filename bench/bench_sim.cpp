// Simulator hot-path microbench: wall-clock (host) cost of the cache
// model and of the end-to-end Fig. 8 suite, comparing the flat cache
// engine against the std::list/unordered_map reference it replaced.
// Emits machine-readable BENCH_sim.json, whose context block names the
// mode, the CPU model, the core count and the source commit.
//
// Both legs of every comparison are semantically identical — equal
// MemStats, equal simulated cycles — which this bench asserts as it
// measures. See docs/PERF.md ("Simulator hot path").
//
// Usage: bench_sim [--smoke] [output.json]   (default ./BENCH_sim.json)
//   --smoke  shrink the workloads for a CI smoke run and skip the
//            acceptance bars (still writes the json).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sim/cache.hpp"
#include "support/check.hpp"

namespace {

bool g_smoke = false;
bench::BenchReport g_report("bench_sim");

// --- cache model: chunk-access pattern --------------------------------------
//
// A deterministic multi-core access trace over the MemorySystem: per-core
// streaming reads (the stream-buffer pattern), pseudo-random mixed
// reads/writes over a large shared region (coherence + invalidation
// traffic), and scratch-region churn (register / touch / release). The
// same trace runs on both LRU engines; stats must match exactly.

struct PatternResult {
  sim::MemStats stats;
  uint64_t chunk_accesses = 0;
  sim::Cycles release_marker = 0;  // defeats dead-code elimination
};

PatternResult run_cache_pattern(sim::LruImpl impl, int iters) {
  constexpr int kCores = 4;
  sim::CacheConfig cfg;
  cfg.lru_impl = impl;
  sim::MemorySystem mem(cfg, kCores);

  const uint64_t frame_bytes = 4u << 20;  // streams through L2
  const uint64_t coeff_bytes = 8u << 20;  // mixed working set
  sim::RegionId frame = mem.register_region(frame_bytes, "frame");
  sim::RegionId coeff = mem.register_region(coeff_bytes, "coeff");

  PatternResult out;
  uint64_t rng = 0x9e3779b97f4a7c15ULL;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  for (int it = 0; it < iters; ++it) {
    // Streaming: each core walks its own quarter of the frame in 4 KiB
    // touches (sequential chunk keys, the best case for both engines).
    for (int core = 0; core < kCores; ++core) {
      uint64_t base = static_cast<uint64_t>(core) * (frame_bytes / 4);
      for (uint64_t off = 0; off + 4096 <= frame_bytes / 4; off += 4096)
        out.release_marker += mem.access(core, frame, base + off, 4096, false);
    }
    // Mixed: pseudo-random 2 KiB touches across the shared coefficient
    // region, one write in four — exercises the presence-mask
    // invalidation path and cross-core L1 churn.
    for (int i = 0; i < 4096; ++i) {
      int core = static_cast<int>(next() % kCores);
      uint64_t off = (next() % (coeff_bytes - 2048)) & ~1023ull;
      bool write = (i & 3) == 0;
      out.release_marker += mem.access(core, coeff, off, 2048, write);
    }
    // Churn: a 256 KiB scratch region every core touches, then release —
    // the task-local buffer lifecycle, and the path where the reference
    // engine pays O(region chunks x caches).
    sim::RegionId scratch = mem.register_region(256u << 10, "scratch");
    for (int core = 0; core < kCores; ++core)
      out.release_marker += mem.access(core, scratch, 0, 256u << 10, true);
    mem.release_region(scratch);
  }
  out.stats = mem.stats();
  out.chunk_accesses = out.stats.accesses;
  return out;
}

void bench_cache() {
  const int iters = g_smoke ? 2 : 12;
  PatternResult flat_check = run_cache_pattern(sim::LruImpl::kFlat, iters);
  PatternResult list_check =
      run_cache_pattern(sim::LruImpl::kListReference, iters);
  SUP_CHECK_MSG(flat_check.stats == list_check.stats,
                "flat and list cache engines disagree on the trace");

  auto [list_ms, flat_ms] = bench::best_ms_pair(
      g_smoke ? 1 : 7,
      [&] { run_cache_pattern(sim::LruImpl::kListReference, iters); },
      [&] { run_cache_pattern(sim::LruImpl::kFlat, iters); });
  g_report.add("chunk_access_pattern", list_ms, flat_ms,
               "multi-core stream+mixed+churn trace, " +
                   std::to_string(flat_check.chunk_accesses) +
                   " chunk accesses");
  std::printf("  chunk accesses/sec: list %.1fM, flat %.1fM\n",
              static_cast<double>(flat_check.chunk_accesses) / list_ms / 1e3,
              static_cast<double>(flat_check.chunk_accesses) / flat_ms / 1e3);
}

// --- end-to-end: the Fig. 8 suite --------------------------------------------
//
// The full Fig. 8 comparison — six hand-written sequential runs plus
// their six XSPCL programs — run end to end through the simulator stack
// (scheduler + job queue + regions + cache model + event loop)
// on each LRU engine. Each leg is recorded once with the kernels
// executing (apps::SeqTrace for the sequential versions,
// hinch::ChargeTrace for the XSPCL sims); the timed legs re-simulate
// from the traces, so they measure the simulator itself rather than the
// media kernels (those are bench_media's subject). Simulated cycles are
// asserted equal across the recording and both replay legs. Apps are
// recorded, timed, and released one at a time to bound trace memory.

struct SuiteApp {
  std::string name;
  std::string spec;
  int64_t frames = 0;
  std::unique_ptr<hinch::Program> prog;  // reset by every run
  apps::SeqTrace seq_trace;
  hinch::ChargeTrace xspcl_trace;
  uint64_t seq_cycles = 0;
  uint64_t xspcl_cycles = 0;
};

// Both legs of one Fig. 8 row, re-simulated from the traces.
void replay_app(SuiteApp& app, sim::LruImpl impl) {
  sim::CacheConfig cache;
  cache.lru_impl = impl;
  apps::SeqReplay seq = apps::replay_seq_trace(app.seq_trace, cache);
  SUP_CHECK_MSG(seq.cycles == app.seq_cycles,
                "replayed sequential cycles diverge from the recording");
  hinch::RunConfig run;
  run.iterations = app.frames;
  hinch::SimParams sim;
  sim.cores = 1;
  sim.cache = cache;
  sim.replay_trace = &app.xspcl_trace;
  uint64_t cycles = hinch::run_on_sim(*app.prog, run, sim).total_cycles;
  SUP_CHECK_MSG(cycles == app.xspcl_cycles,
                "replayed XSPCL cycles diverge from the recording");
}

template <typename Record>
void time_app(const std::string& name, const std::string& spec,
              int64_t frames, const Record& record_seq, double* list_ms,
              double* flat_ms) {
  SuiteApp app;
  app.name = name;
  app.spec = spec;
  app.frames = frames;
  // Record: one run of each leg with the kernels executing.
  apps::SeqResult seq = record_seq(&app.seq_trace);
  app.seq_cycles = seq.cycles;
  app.prog = bench::build_program(spec);
  {
    hinch::RunConfig run;
    run.iterations = frames;
    hinch::SimParams sim;
    sim.cores = 1;
    sim.record_trace = &app.xspcl_trace;
    app.xspcl_cycles = hinch::run_on_sim(*app.prog, run, sim).total_cycles;
  }
  // Replay legs, interleaved (best-of-N per app; the suite totals sum
  // the minima).
  auto [list, flat] = bench::best_ms_pair(
      g_smoke ? 1 : 7,
      [&] { replay_app(app, sim::LruImpl::kListReference); },
      [&] { replay_app(app, sim::LruImpl::kFlat); });
  *list_ms += list;
  *flat_ms += flat;
}

void bench_fig8_suite() {
  double list_ms = 0, flat_ms = 0;
  for (int pips : {1, 2}) {
    apps::PipConfig c = bench::paper_pip(pips);
    if (g_smoke) c.frames = 8;
    time_app(
        "PiP-" + std::to_string(pips), apps::pip_xspcl(c), c.frames,
        [&](apps::SeqTrace* t) { return apps::run_pip_sequential(c, {}, t); },
        &list_ms, &flat_ms);
  }
  for (int pips : {1, 2}) {
    apps::JpipConfig c = bench::paper_jpip(pips);
    if (g_smoke) c.frames = 4;
    time_app(
        "JPiP-" + std::to_string(pips), apps::jpip_xspcl(c), c.frames,
        [&](apps::SeqTrace* t) { return apps::run_jpip_sequential(c, {}, t); },
        &list_ms, &flat_ms);
  }
  for (int kernel : {3, 5}) {
    apps::BlurConfig c = bench::paper_blur(kernel);
    if (g_smoke) c.frames = 8;
    time_app(
        "Blur-" + std::to_string(kernel), apps::blur_xspcl(c), c.frames,
        [&](apps::SeqTrace* t) { return apps::run_blur_sequential(c, {}, t); },
        &list_ms, &flat_ms);
  }
  g_report.add("fig8_suite_end_to_end", list_ms, flat_ms,
               "all twelve Fig. 8 runs re-simulated from recorded traces");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_sim.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      g_smoke = true;
    else
      out = argv[i];
  }
  if (g_smoke) std::printf("(smoke mode: reduced workloads, no bars)\n");
  g_report.add_context("mode", g_smoke ? "smoke" : "full");
  g_report.add_host_context(HINCH_SOURCE_COMMIT);

  bench_cache();
  bench_fig8_suite();
  g_report.write_json(out);

  if (!g_smoke) {
    // Acceptance bars: >=3x on the chunk-access microbench, >=2x on the
    // end-to-end Fig. 8 suite.
    double cache_x = g_report.speedup_of("chunk_access_pattern");
    double suite_x = g_report.speedup_of("fig8_suite_end_to_end");
    if (cache_x < 3.0) {
      std::printf("FAIL: chunk_access_pattern speedup %.2fx < 3x\n", cache_x);
      return 1;
    }
    if (suite_x < 2.0) {
      std::printf("FAIL: fig8_suite_end_to_end speedup %.2fx < 2x\n", suite_x);
      return 1;
    }
  }
  bench::teardown();
  std::printf("OK\n");
  return 0;
}
