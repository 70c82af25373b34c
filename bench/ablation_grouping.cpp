// Ablation — component grouping (§4.1).
//
// The paper attributes JPiP's 18% XSPCL overhead to cache misses from
// splitting fused kernels into stream-connected components, and proposes
// "grouping several components into a group that is scheduled as one
// entity. The consumer components in this group will then be run
// immediately after the producers, when the data is still in the cache.
// However, this approach reduces the amount of parallelism ... Choosing
// the right balance is subject to further research."
//
// This bench runs that proposed experiment: JPiP with the decode chain
// (entropy decode + the three IDCTs) fused into one <group> — the
// coefficient image is consumed immediately instead of parking in a
// 5-slot stream — vs the plain version, at 1 core (sequential overhead)
// and at more cores (parallel cost of the lost IDCT slicing).
//
// The (variant x cores) grid plus the hand-written sequential baseline
// run on the parallel sweep driver.
#include "bench_util.hpp"

namespace {

struct Meas {
  uint64_t cycles;
  uint64_t fetches;
};

}  // namespace

int main() {
  std::printf("Ablation: component grouping (JPiP-1, %d frames)\n",
              bench::paper_jpip(1).frames);

  apps::JpipConfig plain_cfg = bench::paper_jpip(1);
  apps::JpipConfig grouped_cfg = plain_cfg;
  grouped_cfg.grouped = true;
  const std::string plain_spec = apps::jpip_xspcl(plain_cfg);
  const std::string grouped_spec = apps::jpip_xspcl(grouped_cfg);

  const std::vector<int> core_counts = {1, 2, 4, 9};
  // Point 0: hand-written sequential baseline. Then, per core count,
  // the plain and grouped XSPCL variants (sync costs off at 1 core,
  // matching Fig. 8/9 conventions).
  std::vector<Meas> meas = bench::parallel_sweep(
      1 + 2 * static_cast<int>(core_counts.size()), [&](int idx) -> Meas {
        if (idx == 0) {
          apps::SeqResult seq = apps::run_jpip_sequential(plain_cfg);
          return Meas{seq.cycles, seq.mem.mem_fetches};
        }
        int cores = core_counts[static_cast<size_t>((idx - 1) / 2)];
        bool grouped = (idx - 1) % 2 != 0;
        auto prog =
            bench::build_program(grouped ? grouped_spec : plain_spec);
        hinch::SimResult r =
            bench::run_sim(*prog, plain_cfg.frames, cores, cores > 1);
        return Meas{r.total_cycles, r.mem.mem_fetches};
      });

  const Meas& seq = meas[0];
  std::printf("%-10s %14s %14s %14s\n", "cores", "plain Mcyc", "grouped Mcyc",
              "group vs plain");
  for (size_t i = 0; i < core_counts.size(); ++i) {
    int cores = core_counts[i];
    const Meas& p = meas[1 + 2 * i];
    const Meas& g = meas[2 + 2 * i];
    std::printf("%-10d %14.1f %14.1f %+13.1f%%\n", cores,
                bench::mcycles(p.cycles), bench::mcycles(g.cycles),
                100.0 * (static_cast<double>(g.cycles) /
                             static_cast<double>(p.cycles) -
                         1.0));
    if (cores == 1) {
      std::printf("  1-core overhead vs hand-written sequential: plain "
                  "%.1f%%, grouped %.1f%%\n",
                  100.0 * (static_cast<double>(p.cycles) /
                               static_cast<double>(seq.cycles) -
                           1.0),
                  100.0 * (static_cast<double>(g.cycles) /
                               static_cast<double>(seq.cycles) -
                           1.0));
      std::printf("  L2 misses: plain %llu, grouped %llu\n",
                  static_cast<unsigned long long>(p.fetches),
                  static_cast<unsigned long long>(g.fetches));
    }
  }
  std::printf(
      "\nExpected: grouping cuts the 1-core overhead and L2 misses (the\n"
      "coefficients are consumed while cache-warm) but loses badly at\n"
      "high core counts — the fused decode+IDCT task is unsliced, the\n"
      "paper's \"reduces the amount of parallelism\" caveat. Choosing the\n"
      "balance is exactly the further research §4.1 calls for.\n");
  bench::teardown();
  return 0;
}
