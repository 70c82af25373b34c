// Shared helpers for the figure-reproduction harnesses.
//
// Every bench builds the paper's applications at (or near) paper scale,
// runs them on the SpaceCAKE-substitute simulator, and prints the same
// rows/series the corresponding figure reports. Absolute cycle counts
// differ from the TriMedia testbed; the shapes are the reproduction
// target (see DESIGN.md).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "components/clip_cache.hpp"
#include "components/components.hpp"
#include "hinch/runtime.hpp"
#include "support/strings.hpp"
#include "xspcl/loader.hpp"

namespace bench {

// Paper-scale configurations (§4). The inputs are synthetic clips that
// loop; clip_frames bounds one-time generation cost without changing the
// per-frame work.
inline apps::PipConfig paper_pip(int pips, bool reconfigurable = false) {
  apps::PipConfig c;
  c.width = 720;
  c.height = 576;
  c.frames = 96;
  c.pips = pips;
  c.factor = 4;
  c.slices = 8;
  c.clip_frames = 8;
  c.reconfigurable = reconfigurable;
  c.toggle_period = 12;
  return c;
}

inline apps::JpipConfig paper_jpip(int pips, bool reconfigurable = false) {
  apps::JpipConfig c;
  c.width = 1280;
  c.height = 720;
  c.frames = 24;
  c.pips = pips;
  c.factor = 16;
  c.slices = 45;
  c.clip_frames = 4;
  c.reconfigurable = reconfigurable;
  c.toggle_period = 12;
  return c;
}

inline apps::BlurConfig paper_blur(int kernel, bool reconfigurable = false) {
  apps::BlurConfig c;
  c.width = 360;
  c.height = 288;
  c.frames = 96;
  c.kernel = kernel;
  c.slices = 9;
  c.clip_frames = 8;
  c.reconfigurable = reconfigurable;
  c.toggle_period = 12;
  return c;
}

// The six rows of Figs. 8 and 9 in the paper's order (PiP-1, PiP-2,
// JPiP-1, JPiP-2, Blur-3, Blur-5), each with its XSPCL spec, frame count
// and hand-written sequential version, all at paper scale.
struct PaperRow {
  std::string name;
  std::string spec;
  int64_t frames;
  std::function<apps::SeqResult()> seq;
};

inline std::vector<PaperRow> paper_rows() {
  std::vector<PaperRow> rows;
  for (int pips : {1, 2}) {
    apps::PipConfig c = paper_pip(pips);
    rows.push_back({"PiP-" + std::to_string(pips), apps::pip_xspcl(c),
                    c.frames, [c] { return apps::run_pip_sequential(c); }});
  }
  for (int pips : {1, 2}) {
    apps::JpipConfig c = paper_jpip(pips);
    rows.push_back({"JPiP-" + std::to_string(pips), apps::jpip_xspcl(c),
                    c.frames, [c] { return apps::run_jpip_sequential(c); }});
  }
  for (int kernel : {3, 5}) {
    apps::BlurConfig c = paper_blur(kernel);
    rows.push_back({"Blur-" + std::to_string(kernel), apps::blur_xspcl(c),
                    c.frames, [c] { return apps::run_blur_sequential(c); }});
  }
  return rows;
}

inline std::unique_ptr<hinch::Program> build_program(
    const std::string& spec) {
  components::register_standard_globally();
  auto prog =
      xspcl::build_program(spec, hinch::ComponentRegistry::global());
  if (!prog.is_ok()) {
    std::fprintf(stderr, "bench: failed to build program: %s\n",
                 prog.status().to_string().c_str());
    std::abort();
  }
  return std::move(prog).take();
}

inline hinch::SimResult run_sim(hinch::Program& prog, int64_t iterations,
                                int cores, bool sync_costs = true,
                                int window = 5) {
  hinch::RunConfig run;
  run.iterations = iterations;
  run.window = window;
  hinch::SimParams sim;
  sim.cores = cores;
  sim.sync_costs = sync_costs;
  return hinch::run_on_sim(prog, run, sim);
}

inline double mcycles(uint64_t cycles) {
  return static_cast<double>(cycles) / 1e6;
}

// --- parallel sweep driver --------------------------------------------------
//
// The figure benches sweep independent deterministic sims (core counts,
// parameter grids). parallel_sweep runs `fn(0) .. fn(n-1)` on a pool of
// worker threads and returns the results in index order. Each sweep
// point must be self-contained: build its own Program and let the sim
// executor own its per-run MemorySystem/Engine — a Program's components
// are stateful during execution, so points must never share one. Every
// point is bit-deterministic on its own, and collection is by index, so
// the assembled output is byte-identical to the sequential loop no
// matter how the points interleave.

// Worker count: XSPCL_SWEEP_THREADS if set (>=1), else the hardware
// concurrency. 1 runs the points inline on the calling thread.
inline int sweep_threads() {
  if (const char* env = std::getenv("XSPCL_SWEEP_THREADS")) {
    int v = std::atoi(env);
    if (v >= 1) return v;
  }
  unsigned hc = std::thread::hardware_concurrency();
  return hc ? static_cast<int>(hc) : 1;
}

// A sweep point that throws (or leaves its slot empty any other way)
// aborts the whole bench run after the pool drains, with the first error
// reported. Silently assembling partial results would publish a
// plausible-looking but incomplete BENCH_*.json / figure table.
template <typename Fn>
auto parallel_sweep(int n, Fn&& fn) -> std::vector<decltype(fn(int{}))> {
  using R = decltype(fn(int{}));
  std::vector<std::optional<R>> slots(static_cast<size_t>(n));
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::string first_error;
  auto point = [&](int i) {
    try {
      slots[static_cast<size_t>(i)].emplace(fn(i));
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!failed.exchange(true))
        first_error =
            "point " + std::to_string(i) + " threw: " + e.what();
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!failed.exchange(true))
        first_error = "point " + std::to_string(i) +
                      " threw a non-std::exception";
    }
  };
  const int workers = std::min(n, sweep_threads());
  if (workers <= 1) {
    for (int i = 0; i < n && !failed.load(); ++i) point(i);
  } else {
    std::atomic<int> next{0};
    auto work = [&] {
      for (int i = next.fetch_add(1); i < n && !failed.load();
           i = next.fetch_add(1))
        point(i);
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(workers - 1));
    for (int w = 0; w < workers - 1; ++w) pool.emplace_back(work);
    work();  // the calling thread is a worker too
    for (std::thread& t : pool) t.join();
  }
  if (failed.load()) {
    std::fprintf(stderr, "bench: parallel_sweep failed: %s\n",
                 first_error.c_str());
    std::abort();
  }
  std::vector<R> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::optional<R>& s = slots[static_cast<size_t>(i)];
    if (!s.has_value()) {
      std::fprintf(stderr,
                   "bench: parallel_sweep point %d produced no result\n", i);
      std::abort();
    }
    out.push_back(std::move(*s));
  }
  return out;
}

// --- wall-clock timing + BENCH_*.json emission ------------------------------
//
// Host-time microbench plumbing shared by bench_media and bench_sim
// (see docs/PERF.md for the host-clock vs simulated-cycle split).

using WallClock = std::chrono::steady_clock;

inline double ms_since(WallClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(WallClock::now() - t0)
      .count();
}

// Best-of-N wall-clock of `fn` (after one untimed warmup run).
template <typename Fn>
double best_ms(int reps, Fn&& fn) {
  fn();
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    auto t0 = WallClock::now();
    fn();
    double ms = ms_since(t0);
    if (ms < best) best = ms;
  }
  return best;
}

// Best-of-N for a baseline/optimized pair, with the reps interleaved
// (a, b, a, b, ...) so both legs sample the same machine conditions —
// host-wide slowdowns then inflate both minima instead of skewing the
// ratio. Returns {best_a_ms, best_b_ms}.
template <typename FnA, typename FnB>
std::pair<double, double> best_ms_pair(int reps, FnA&& a, FnB&& b) {
  a();
  b();
  double best_a = 1e300, best_b = 1e300;
  for (int i = 0; i < reps; ++i) {
    auto t0 = WallClock::now();
    a();
    best_a = std::min(best_a, ms_since(t0));
    t0 = WallClock::now();
    b();
    best_b = std::min(best_b, ms_since(t0));
  }
  return {best_a, best_b};
}

// Printable ASCII other than quotes and backslashes, so the value can sit
// in a JSON string as is.
inline std::string json_safe(const std::string& s) {
  std::string out;
  for (char c : s)
    if (c >= 0x20 && c < 0x7f && c != '"' && c != '\\') out += c;
  return out;
}

// The host CPU's model name ("unknown" where /proc/cpuinfo has none).
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    return json_safe(std::string(support::trim(line.substr(colon + 1))));
  }
  return "unknown";
}

struct BenchRow {
  std::string name;
  double baseline_ms;
  double optimized_ms;
  std::string unit;  // what one measurement covers

  double speedup() const { return baseline_ms / optimized_ms; }
};

// Collects baseline/optimized row pairs, echoes them to stdout, and
// writes the machine-readable BENCH_<name>.json the CI bench-smoke step
// uploads as an artifact.
class BenchReport {
 public:
  explicit BenchReport(std::string bench_name)
      : bench_(std::move(bench_name)) {}

  void add(const std::string& name, double baseline_ms, double optimized_ms,
           const std::string& unit) {
    rows_.push_back({name, baseline_ms, optimized_ms, unit});
    std::printf(
        "%-28s baseline %9.3f ms  optimized %9.3f ms  speedup %5.2fx\n",
        name.c_str(), baseline_ms, optimized_ms, baseline_ms / optimized_ms);
  }

  // Free-form string facts about the run (kernel dispatch tier, host,
  // flags); emitted as a "context" object so BENCH_*.json artifacts from
  // different machines/legs are distinguishable.
  void add_context(const std::string& key, const std::string& value) {
    context_.emplace_back(key, value);
  }

  // The host a wall-clock row was measured on: CPU model, core count
  // and the source commit. `commit` is the bench's HINCH_SOURCE_COMMIT,
  // `git describe --always --dirty` when the build was configured.
  void add_host_context(const std::string& commit) {
    add_context("cpu", cpu_model());
    add_context("nproc", std::to_string(std::thread::hardware_concurrency()));
    add_context("commit", commit);
  }

  const std::vector<BenchRow>& rows() const { return rows_; }

  // Returns the speedup of the named row, or 0 if absent.
  double speedup_of(const std::string& name) const {
    for (const BenchRow& r : rows_)
      if (r.name == name) return r.speedup();
    return 0.0;
  }

  void write_json(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot open output json '%s'\n",
                   path.c_str());
      std::abort();
    }
    // Numbers are formatted via support::format_double, not fprintf("%f"):
    // printf honours LC_NUMERIC, and a decimal-comma locale would emit
    // invalid JSON (see docs/OBSERVABILITY.md, number formatting).
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench_.c_str());
    std::fprintf(f, "  \"clock\": \"host_wall_clock\",\n");
    if (!context_.empty()) {
      std::fprintf(f, "  \"context\": {");
      for (size_t i = 0; i < context_.size(); ++i)
        std::fprintf(f, "%s\"%s\": \"%s\"", i ? ", " : "",
                     context_[i].first.c_str(), context_[i].second.c_str());
      std::fprintf(f, "},\n");
    }
    std::fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      const BenchRow& r = rows_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"baseline_ms\": %s, "
                   "\"optimized_ms\": %s, \"speedup\": %s, "
                   "\"unit\": \"%s\"}%s\n",
                   r.name.c_str(),
                   support::format_double(r.baseline_ms).c_str(),
                   support::format_double(r.optimized_ms).c_str(),
                   support::format_double(r.speedup()).c_str(),
                   r.unit.c_str(), i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  std::string bench_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<BenchRow> rows_;
};

// End-of-main teardown: drop the process-wide clip caches so harnesses
// that chain several paper-scale configurations (and leak checkers) see
// a clean exit.
inline void teardown() { components::clear_clip_caches(); }

}  // namespace bench
