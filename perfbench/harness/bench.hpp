// perfbench: one benchmark for the whole XSPCL/Hinch stack.
//
// Each workload drives the system only through its public functions and
// times every call from here. A run prints a human-readable block
// ("# ..." lines), then one JSON line with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). The per-layer run
// attaches an obs::TraceSession through SessionConfig::trace /
// RunOptions::trace and records the benchmark's own spans around each
// call it makes into a layer (SpanLog below).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace obs {
class TraceSession;
}
namespace components {
class SinkState;
}
namespace media {
class Frame;
class MjpegClip;
}
namespace hinch {
class Program;
}
namespace sp {
class Node;
}
namespace support {
class SplitMix64;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);

// ---- statistics (stats.cpp) --------------------------------------------------

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

// A tail percentile as the sample supports it. `pct` is the percentile
// actually reported (0..100) and `n` the sample count.
struct Tail {
  double value = 0;
  double pct = 0;
  size_t n = 0;
};

// The nearest-rank p-th percentile (0 < p < 1) when at least 10 samples
// lie beyond it. Otherwise the highest percentile that has 10 samples
// beyond it; when no rank above the median has 10 (n < 22), the
// maximum, with pct = 100. Empty input gives {0, 0, 0}.
Tail tail(std::vector<double> v, double p);

// "p95.0 of 412" — how a Tail is labelled in the report.
std::string describe(const Tail& t);

// ---- report ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  // For ratios: what the value is divided by. Printed beside the value.
  std::string base;
};

// Everything one workload run produces. A "unit" is one output check
// (a session's checksum, a simulated run's cycle count); failed units
// make the run incorrect and count against output_ok_frac.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
  void add_e2e(std::string name, double value, std::string unit,
               std::string base = {});
  void add_layer(std::string name, double value, std::string unit,
                 std::string base = {});
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

// ---- spans (spans.cpp) ------------------------------------------------------------

struct Span {
  std::string layer;  // module name: xml, xspcl, sp, hinch, components, ...
  std::string name;   // the call or the component class
  int lane = 0;       // thread that recorded it; nesting is per lane
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;

  uint64_t dur_ns() const { return end_ns - start_ns; }
};

// In-memory span recorder for the benchmark's own calls into the layers.
// Disabled logs record nothing and cost one branch per scope.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t now_ns() const;

  // RAII span: closes when it goes out of scope.
  class Scope {
   public:
    Scope(SpanLog* log, const char* layer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    Span span_;
  };
  Scope scope(const char* layer, std::string name) {
    return Scope(enabled_ ? this : nullptr, layer, std::move(name));
  }

  void add(Span s);
  std::vector<Span> spans() const;

  // Writes every span as one JSON array (Chrome trace "X" events).
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Per (layer, name): call count, total time and self time (total minus
// the time covered by spans nested inside it on the same lane).
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::map<std::pair<std::string, std::string>, SpanTotals> aggregate(
    const std::vector<Span>& spans);

// Sum of span durations over (wall time x workers).
double busy_fraction(const std::vector<Span>& spans, double wall_ms,
                     int workers);

// Component class of a task: "blur_h#3" -> instance "blur_h" -> its class
// in `instance_class`; slice copies share their leaf's class. The blur
// phases (blur_h, blur_v, blur_hv) report as one class, "blur".
std::string task_class(const std::string& instance,
                       const std::map<std::string, std::string>& instance_class);

// Class name of every task of `prog` (indexed by task id), from the
// leaves of the graph it was built from. Manager tasks are "manager",
// grouped tasks "group".
std::vector<std::string> task_classes(hinch::Program& prog,
                                      const sp::Node& graph);

// Converts the task spans of a finished session's trace into Spans
// (layer "components", name = class). Returns the events the trace
// dropped.
uint64_t collect_task_spans(const obs::TraceSession& trace,
                            const std::vector<std::string>& classes,
                            int lane_base, std::vector<Span>* out);

// ---- layers (layers.cpp) ----------------------------------------------------------

// One-line JSON object of host facts: CPU model, nproc, media dispatch
// tier, build type and whether tracing is compiled in.
std::string host_context_json();
int host_cpus();
double peak_rss_mb();

// The XSPCL front end and Program::build, called layer by layer (the
// SpecCache miss path, split), each call inside a SpanLog scope.
struct Compiled {
  std::unique_ptr<hinch::Program> program;
  std::shared_ptr<sp::Node> graph;  // post-pipeline graph the program uses
  int tasks = 0;                    // expanded leaves of the SP graph
  std::string error;                // set when a layer rejected the spec
};
Compiled compile_layered(const std::string& text, SpanLog& log);

// The synthetic clips fall into content classes whose JPEG encodings
// differ about 2x in size, and so in decode work. To keep the work the
// same for every seed, a clip seed is the one, of `candidates` drawn from
// `rng`, whose clips (seeds seed .. seed + span - 1, the lightest of
// them) compress largest, judged by one-frame probes through the clip
// cache.
uint64_t heavy_clip_seed(support::SplitMix64& rng, int width, int height,
                         int quality, int span, int candidates);

// The state of the program's (single) sink, or null when it has none.
const components::SinkState* find_sink(hinch::Program& prog);

// setup_s of a workload. `one` performs one cold set-up and returns the
// seconds it took (stopping the clock before any teardown). On a 4-vCPU
// Xeon VM shared with other tenants, back-to-back set-ups ran at one of
// two speeds 1.6x apart, switching every few hundred ms, so the median of
// a burst flipped between runs. Set-ups are therefore spaced 20 ms apart
// over about two seconds and dealt round-robin into five groups; the
// result is the median of the five group means.
double setup_seconds(const std::function<double()>& one);

// Median wall ms per call of fn(i) for i in [0, n), over `reps` passes
// after one untimed warm-up pass.
template <typename Fn>
double ms_per_call(int n, int reps, Fn&& fn) {
  for (int i = 0; i < n; ++i) fn(i);
  std::vector<double> per_pass;
  for (int r = 0; r < reps; ++r) {
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < n; ++i) fn(i);
    per_pass.push_back(ms_between(t0, Clock::now()) / n);
  }
  return median(per_pass);
}

// The two decode phases over every frame of `clip` on one thread: median
// ms per frame of each over `reps` passes, after a warm-up pass. The
// last frame's pixels are left in `out` (the clip's format and size).
struct DecodeLedger {
  double entropy_ms = 0;
  double idct_ms = 0;
};
DecodeLedger decode_ledger(const media::MjpegClip& clip, media::Frame* out,
                           int reps);

// Simulated run of `prog`, with an optional charge-trace replay of it.
// `check` inspects the program's output after the full run (a replay
// executes no components) and returns an error, or "" when it is right.
using OutputCheck =
    std::function<std::string(hinch::Program&, uint64_t reconfigurations)>;
struct SimLeg {
  uint64_t cycles = 0;
  uint64_t jobs = 0;
  double l1_hit_rate = 0;
  uint64_t mem_fetches = 0;
  double full_ms = 0;
  double replay_ms = 0;  // 0 when not replayed
  uint64_t replay_cycles = 0;
  std::string output_error;
};
SimLeg run_sim_leg(hinch::Program& prog, int64_t iterations, int window,
                   int cores, bool replay, const OutputCheck& check,
                   SpanLog& log);

// ---- workloads ----------------------------------------------------------------

// Each fills `r`, which starts with add_layer_defaults() applied.
void run_mjpeg(const Options& opt, SpanLog& log, Report* r);
void run_tenants(const Options& opt, SpanLog& log, Report* r);
void run_jpip(const Options& opt, SpanLog& log, Report* r);

// Per-layer metrics every workload reports, zero where the workload has
// no such layer; the workloads overwrite the ones they measure.
void add_layer_defaults(Report* r);

// Sets components.<class>.ms_per_frame from task spans over `frames`.
void add_component_metrics(const std::vector<Span>& task_spans,
                           int64_t frames, Report* r);

// Sets xml.parse_ms, xspcl.elaborate_ms, sp.passes_ms and hinch.build_ms
// (mean ms per call) from the spans compile_layered recorded.
void add_front_end_metrics(const std::vector<Span>& spans, Report* r);

}  // namespace perfbench
