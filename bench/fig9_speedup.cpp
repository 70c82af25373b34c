// Figure 9 — Parallel speedup on the SpaceCAKE tile (1..9 cores).
//
// Paper: speedup of PiP-1/2, JPiP-1/2, Blur-3/5 relative to the fastest
// sequential version of each application; parallel runs at 1 node
// disable all synchronization operations. Reported shape: good
// efficiency for all; Blur best (largest compute-to-communication
// ratio), JPiP worst (carries its ~18% sequential overhead).
//
// The (series x cores) grid is a set of independent deterministic sims,
// so the points run on the parallel sweep driver; results are collected
// by index and the printed table is byte-identical to a sequential run.
#include "bench_util.hpp"

namespace {

constexpr int kMaxCores = 9;

struct Series {
  std::string name;
  std::vector<double> speedup;
};

}  // namespace

int main() {
  std::printf("Figure 9: speedup vs cores (relative to fastest sequential)\n");

  std::vector<bench::PaperRow> defs = bench::paper_rows();

  // Per series: point 0 = hand-written sequential, point 1 = 1-core
  // XSPCL with synchronization disabled ("parallel runs at 1 node
  // disable all synchronization operations"), points 2..9 = that core
  // count. Every point builds its own Program.
  const int per_series = kMaxCores + 1;
  std::vector<uint64_t> cycles = bench::parallel_sweep(
      static_cast<int>(defs.size()) * per_series, [&](int idx) -> uint64_t {
        const bench::PaperRow& d = defs[static_cast<size_t>(idx / per_series)];
        int point = idx % per_series;
        if (point == 0) return d.seq().cycles;
        auto prog = bench::build_program(d.spec);
        if (point == 1)
          return bench::run_sim(*prog, d.frames, 1, /*sync_costs=*/false)
              .total_cycles;
        return bench::run_sim(*prog, d.frames, point).total_cycles;
      });

  std::vector<Series> series;
  for (size_t s = 0; s < defs.size(); ++s) {
    const uint64_t* row = &cycles[s * static_cast<size_t>(per_series)];
    uint64_t seq = row[0];
    uint64_t xspcl1 = row[1];
    // "All speedup measurements are relative to the fastest sequential
    // version of the application. For Blur, this is the parallel version."
    uint64_t base = std::min(seq, xspcl1);
    Series out{defs[s].name, {}};
    for (int cores = 1; cores <= kMaxCores; ++cores) {
      uint64_t t = cores == 1 ? xspcl1 : row[cores];
      out.speedup.push_back(static_cast<double>(base) /
                            static_cast<double>(t));
    }
    series.push_back(std::move(out));
  }

  std::printf("%-8s", "cores");
  for (const Series& s : series) std::printf("%9s", s.name.c_str());
  std::printf("\n");
  for (int cores = 1; cores <= kMaxCores; ++cores) {
    std::printf("%-8d", cores);
    for (const Series& s : series)
      std::printf("%9.2f", s.speedup[static_cast<size_t>(cores - 1)]);
    std::printf("\n");
  }
  std::printf(
      "\nPaper shape: all scale well; Blur best (highest compute/comm\n"
      "ratio); JPiP lowest (sequential overhead carries over).\n");

  bench::teardown();
  return 0;
}
