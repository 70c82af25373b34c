// Figure 8 — Sequential overhead.
//
// Paper: cycles (x 1e6) of hand-written sequential versions vs the XSPCL
// versions on one node, for PiP-1, PiP-2, JPiP-1, JPiP-2, Blur-3x3,
// Blur-5x5. Reported shape: PiP overhead ~5%, JPiP ~18% (driven by extra
// cache misses after splitting fused kernels into stream-connected
// components), Blur ~0 (<1.1%, no fusion difference).
//
// Also reproduces the §4.1 profiling claim: the XSPCL JPiP shows
// significantly more cache misses than the sequential version.
//
// The six (sequential, xspcl) pairs are independent deterministic sims
// and run on the parallel sweep driver; rows print in definition order.
#include "bench_util.hpp"

namespace {

struct Meas {
  uint64_t cycles;
  uint64_t misses;  // fetches that had to go to memory (L2 misses)
};

struct Row {
  std::string name;
  uint64_t seq_cycles;
  uint64_t xspcl_cycles;
  uint64_t seq_misses;
  uint64_t xspcl_misses;
};

}  // namespace

int main() {
  std::printf("Figure 8: sequential overhead (cycles x 1e6, 1 core)\n");
  std::printf("%-10s %14s %14s %10s %16s\n", "app", "sequential", "xspcl",
              "overhead", "L2-miss ratio");

  std::vector<bench::PaperRow> defs = bench::paper_rows();

  // Per row: even point = hand-written sequential, odd point = the
  // XSPCL version on one simulated core.
  std::vector<Meas> meas = bench::parallel_sweep(
      static_cast<int>(defs.size()) * 2, [&](int idx) -> Meas {
        const bench::PaperRow& d = defs[static_cast<size_t>(idx / 2)];
        if (idx % 2 == 0) {
          apps::SeqResult s = d.seq();
          return Meas{s.cycles, s.mem.mem_fetches};
        }
        auto prog = bench::build_program(d.spec);
        hinch::SimResult r = bench::run_sim(*prog, d.frames, /*cores=*/1);
        return Meas{r.total_cycles, r.mem.mem_fetches};
      });

  std::vector<Row> rows;
  for (size_t i = 0; i < defs.size(); ++i) {
    // Fig. 8 labels the blur rows by kernel size ("Blur-3x3").
    std::string name = defs[i].name;
    if (name.rfind("Blur-", 0) == 0) name += "x" + name.substr(5);
    rows.push_back(Row{name, meas[2 * i].cycles, meas[2 * i + 1].cycles,
                       meas[2 * i].misses, meas[2 * i + 1].misses});
  }

  for (const Row& row : rows) {
    double overhead = 100.0 * (static_cast<double>(row.xspcl_cycles) /
                                   static_cast<double>(row.seq_cycles) -
                               1.0);
    double miss_ratio = row.seq_misses
                            ? static_cast<double>(row.xspcl_misses) /
                                  static_cast<double>(row.seq_misses)
                            : 0.0;
    std::printf("%-10s %14.1f %14.1f %9.1f%% %15.2fx\n", row.name.c_str(),
                bench::mcycles(row.seq_cycles),
                bench::mcycles(row.xspcl_cycles), overhead, miss_ratio);
  }

  std::printf(
      "\nPaper shape: PiP ~5%% overhead, JPiP largest (~18%%, extra cache\n"
      "misses from de-fused kernels - see the miss ratio column), Blur ~0%%.\n");

  bench::teardown();
  return 0;
}
