// Figure 10 — Reconfiguration overhead (1..9 cores).
//
// Paper: run time of the reconfigurable variants (PiP-12, JPiP-12 toggle
// the second picture every 12 frames; Blur-35 switches 3x3 <-> 5x5 every
// 12 frames) divided by the average of the corresponding static
// applications. Reported shape: overhead below ~15%, growing with core
// count (quiescing drains the pipeline, so there is less parallelism to
// exploit on average), with small non-monotone jitter.
//
// The (series x variant x cores) grid runs on the parallel sweep
// driver; each point builds its own Program, results assemble by index.
#include "bench_util.hpp"
#include "obs/chrome_export.hpp"
#include "obs/trace.hpp"

namespace {

constexpr int kMaxCores = 9;
constexpr int kVariants = 3;  // static A, static B, reconfigurable

struct SeriesDef {
  std::string name;
  std::string specs[kVariants];
  int64_t frames;
};

struct Series {
  std::string name;
  std::vector<double> overhead_pct;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  // `--trace` (writes fig10_trace.json) or `--trace=out.json`. The traced
  // run happens after the table, so the untraced output is unchanged.
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--smoke")
      smoke = true;
    else if (a == "--trace")
      trace_path = "fig10_trace.json";
    else if (a.rfind("--trace=", 0) == 0)
      trace_path = a.substr(8);
  }

  std::printf("Figure 10: reconfiguration overhead vs cores\n");
  std::printf("(reconfigurable runtime / mean of the two static variants)\n");
  if (smoke) std::printf("(smoke mode: reduced PiP-only grid)\n");

  std::vector<SeriesDef> defs;
  if (smoke) {
    // CI-scale grid: one series at a shrunken resolution, same shape.
    auto small = [](int pips, bool reconfigurable = false) {
      apps::PipConfig c = bench::paper_pip(pips, reconfigurable);
      c.width = 360;
      c.height = 288;
      c.frames = 24;
      c.slices = 4;
      c.clip_frames = 4;
      c.toggle_period = 6;
      return c;
    };
    defs.push_back({"PiP-12",
                    {apps::pip_xspcl(small(1)), apps::pip_xspcl(small(2)),
                     apps::pip_xspcl(small(2, true))},
                    small(1).frames});
  } else {
    defs.push_back({"PiP-12",
                    {apps::pip_xspcl(bench::paper_pip(1)),
                     apps::pip_xspcl(bench::paper_pip(2)),
                     apps::pip_xspcl(bench::paper_pip(2, true))},
                    bench::paper_pip(1).frames});
    defs.push_back({"JPiP-12",
                    {apps::jpip_xspcl(bench::paper_jpip(1)),
                     apps::jpip_xspcl(bench::paper_jpip(2)),
                     apps::jpip_xspcl(bench::paper_jpip(2, true))},
                    bench::paper_jpip(1).frames});
    defs.push_back({"Blur-35",
                    {apps::blur_xspcl(bench::paper_blur(3)),
                     apps::blur_xspcl(bench::paper_blur(5)),
                     apps::blur_xspcl(bench::paper_blur(3, true))},
                    bench::paper_blur(3).frames});
  }

  const int per_series = kVariants * kMaxCores;
  std::vector<uint64_t> cycles = bench::parallel_sweep(
      static_cast<int>(defs.size()) * per_series, [&](int idx) -> uint64_t {
        const SeriesDef& d = defs[static_cast<size_t>(idx / per_series)];
        int variant = (idx % per_series) / kMaxCores;
        int cores = (idx % kMaxCores) + 1;
        auto prog = bench::build_program(d.specs[variant]);
        return bench::run_sim(*prog, d.frames, cores).total_cycles;
      });

  std::vector<Series> series;
  for (size_t s = 0; s < defs.size(); ++s) {
    const uint64_t* row = &cycles[s * static_cast<size_t>(per_series)];
    Series out{defs[s].name, {}};
    for (int cores = 1; cores <= kMaxCores; ++cores) {
      double a = static_cast<double>(row[0 * kMaxCores + cores - 1]);
      double b = static_cast<double>(row[1 * kMaxCores + cores - 1]);
      double r = static_cast<double>(row[2 * kMaxCores + cores - 1]);
      out.overhead_pct.push_back(100.0 * (r / ((a + b) / 2) - 1.0));
    }
    series.push_back(std::move(out));
  }

  std::printf("%-8s", "cores");
  for (const Series& s : series) std::printf("%10s", s.name.c_str());
  std::printf("\n");
  for (int cores = 1; cores <= kMaxCores; ++cores) {
    std::printf("%-8d", cores);
    for (const Series& s : series)
      std::printf("%9.1f%%", s.overhead_pct[static_cast<size_t>(cores - 1)]);
    std::printf("\n");
  }
  std::printf(
      "\nPaper shape: overhead stays below ~15%% and grows with the\n"
      "number of cores (quiescing serializes the application).\n");

  if (!trace_path.empty()) {
    // Trace the reconfigurable PiP variant on 4 cores: the exported JSON
    // shows the quiesce/splice stall (a gap in every core's span row
    // around each "reconfiguration" marker).
    if (!obs::kTraceCompiledIn)
      std::fprintf(stderr,
                   "fig10: built with HINCH_TRACING=OFF; the trace will "
                   "contain no events\n");
    const SeriesDef& d = defs[0];
    const int cores = 4;
    auto prog = bench::build_program(d.specs[2]);
    obs::TraceSession session;
    hinch::RunConfig run;
    run.iterations = d.frames;
    hinch::SimParams sim;
    sim.cores = cores;
    sim.trace = &session;
    hinch::SimResult r = hinch::run_on_sim(*prog, run, sim);
    if (!obs::write_chrome_trace(session, trace_path)) std::abort();
    std::printf("trace: wrote %s (cores=%d cycles=%.1fM events=%llu "
                "dropped=%llu)\n",
                trace_path.c_str(), cores, bench::mcycles(r.total_cycles),
                static_cast<unsigned long long>(session.emitted()),
                static_cast<unsigned long long>(session.dropped()));
  }
  bench::teardown();
  return 0;
}
