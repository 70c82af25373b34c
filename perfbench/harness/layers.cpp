#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <thread>

#include "bench.hpp"
#include "components/clip_cache.hpp"
#include "components/sinks.hpp"
#include "hinch/runtime.hpp"
#include "media/jpeg.hpp"
#include "media/mjpeg.hpp"
#include "media/kernels.hpp"
#include "obs/trace.hpp"
#include "sp/pass.hpp"
#include "sp/validate.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "xml/parser.hpp"
#include "xspcl/elaborate.hpp"
#include "xspcl/parser.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    return std::string(support::trim(line.substr(colon + 1)));
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

int host_cpus() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::string host_context_json() {
  return support::format(
      "{\"cpu\": \"%s\", \"nproc\": %d, \"dispatch\": \"%s\", "
      "\"build_type\": \"%s\", \"hinch_tracing\": %s}",
      json_escape(cpu_model()).c_str(), host_cpus(),
      media::kernel_dispatch_name(media::active_kernel_dispatch()),
      PERFBENCH_BUILD_TYPE, obs::kTraceCompiledIn ? "true" : "false");
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Compiled compile_layered(const std::string& text, SpanLog& log) {
  Compiled out;
  auto fail = [&](const support::Status& st) {
    out.error = st.to_string();
    return std::move(out);
  };
  support::Result<xml::ElementPtr> root = [&] {
    auto s = log.scope("xml", "parse");
    return xml::parse(text);
  }();
  if (!root.is_ok()) return fail(root.status());

  support::Result<sp::NodePtr> elaborated =
      [&]() -> support::Result<sp::NodePtr> {
    auto s = log.scope("xspcl", "elaborate");
    SUP_ASSIGN_OR_RETURN(xspcl::ast::Program ast, xspcl::parse(*root.value()));
    return xspcl::elaborate(ast);
  }();
  if (!elaborated.is_ok()) return fail(elaborated.status());

  support::Result<sp::NodePtr> lowered = [&]() -> support::Result<sp::NodePtr> {
    auto s = log.scope("sp", "passes");
    SUP_RETURN_IF_ERROR(sp::validate(*elaborated.value()));
    return sp::make_pipeline(sp::PassOptions()).run(
        std::move(elaborated).take());
  }();
  if (!lowered.is_ok()) return fail(lowered.status());
  out.graph = std::shared_ptr<sp::Node>(std::move(lowered).take());
  out.tasks = sp::stats(*out.graph).expanded_leaves;

  hinch::Program::BuildConfig build;
  build.passes = sp::PassOptions::none();
  support::Result<std::unique_ptr<hinch::Program>> prog = [&] {
    auto s = log.scope("hinch", "build");
    return hinch::Program::build(*out.graph,
                                 hinch::ComponentRegistry::global(), build);
  }();
  if (!prog.is_ok()) return fail(prog.status());
  out.program = std::move(prog).take();
  return out;
}

double setup_seconds(const std::function<double()>& one) {
  constexpr int kGroups = 5;
  constexpr int kReps = 100;
  std::vector<double> sum(kGroups, 0.0);
  for (int i = 0; i < kReps; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sum[i % kGroups] += one();
  }
  for (double& s : sum) s /= kReps / kGroups;
  return median(sum);
}

uint64_t heavy_clip_seed(support::SplitMix64& rng, int width, int height,
                         int quality, int span, int candidates) {
  uint64_t best_seed = 0;
  size_t best_bytes = 0;
  for (int i = 0; i < candidates; ++i) {
    uint64_t seed = 1 + rng.next_below(1u << 20);
    size_t bytes = SIZE_MAX;
    for (int k = 0; k < span; ++k)
      bytes = std::min(
          bytes, components::cached_mjpeg_clip(
                     {seed + static_cast<uint64_t>(k), width, height,
                      media::PixelFormat::kYuv420, 1, quality, 0})
                     ->total_bytes());
    if (bytes > best_bytes) {
      best_bytes = bytes;
      best_seed = seed;
    }
  }
  return best_seed;
}

const components::SinkState* find_sink(hinch::Program& prog) {
  for (int i = 0; i < prog.component_count(); ++i)
    if (auto* s = dynamic_cast<const components::SinkAccess*>(
            &prog.component(i)))
      return &s->sink();
  return nullptr;
}

DecodeLedger decode_ledger(const media::MjpegClip& clip, media::Frame* out,
                           int reps) {
  media::jpeg::CoeffImage coeffs;
  std::vector<double> entropy, idct;
  for (int pass = 0; pass <= reps; ++pass) {
    double entropy_ms = 0, idct_ms = 0;
    for (int i = 0; i < clip.frame_count(); ++i) {
      const std::vector<uint8_t>& bytes = clip.frame(i);
      Clock::time_point t0 = Clock::now();
      (void)media::jpeg::decode_to_coefficients_into(bytes.data(),
                                                     bytes.size(), &coeffs);
      Clock::time_point t1 = Clock::now();
      for (size_t p = 0; p < coeffs.comps.size(); ++p)
        media::jpeg::idct_component(coeffs.comps[p],
                                    out->plane(static_cast<int>(p)), 0,
                                    coeffs.comps[p].blocks_h);
      entropy_ms += ms_between(t0, t1);
      idct_ms += ms_between(t1, Clock::now());
    }
    if (pass == 0) continue;  // warm-up
    entropy.push_back(entropy_ms / clip.frame_count());
    idct.push_back(idct_ms / clip.frame_count());
  }
  return {median(entropy), median(idct)};
}

SimLeg run_sim_leg(hinch::Program& prog, int64_t iterations, int window,
                   int cores, bool replay, const OutputCheck& check,
                   SpanLog& log) {
  hinch::RunConfig run;
  run.iterations = iterations;
  run.window = window;
  hinch::ChargeTrace charges;
  hinch::SimParams params;
  params.cores = cores;
  if (replay) params.record_trace = &charges;

  SimLeg leg;
  Clock::time_point t0 = Clock::now();
  hinch::SimResult full = [&] {
    auto s = log.scope("hinch", "run_on_sim");
    return hinch::run_on_sim(prog, run, params);
  }();
  leg.full_ms = ms_between(t0, Clock::now());
  leg.cycles = full.total_cycles;
  leg.jobs = full.jobs;
  leg.l1_hit_rate = full.mem.l1_hit_rate();
  leg.mem_fetches = full.mem.mem_fetches;
  leg.output_error = check(prog, full.sched.reconfigurations);
  if (replay) {
    hinch::SimParams rp;
    rp.cores = cores;
    rp.replay_trace = &charges;
    t0 = Clock::now();
    hinch::SimResult again = [&] {
      auto s = log.scope("hinch", "run_on_sim.replay");
      return hinch::run_on_sim(prog, run, rp);
    }();
    leg.replay_ms = ms_between(t0, Clock::now());
    leg.replay_cycles = again.total_cycles;
  }
  return leg;
}

void add_layer_defaults(Report* r) {
  static const char* const kMs[] = {
      "xml.parse_ms",
      "xspcl.elaborate_ms",
      "sp.passes_ms",
      "hinch.build_ms",
      "hinch.frame_gap_p95_ms",
      "hinch.session_run_ms_p50",
      "hinch.session_overhead_ms_p50",
      "components.mjpeg_source.ms_per_frame",
      "components.jpeg_decode.ms_per_frame",
      "components.idct.ms_per_frame",
      "components.yuv_sink.ms_per_frame",
      "components.video_source.ms_per_frame",
      "components.blur.ms_per_frame",
      "components.downscale.ms_per_frame",
      "components.blend.ms_per_frame",
      "components.frame_sink.ms_per_frame",
      "media.entropy_ms_per_frame",
      "media.idct_ms_per_frame",
      "media.frame_hash_ms_per_frame",
      "media.blur_ms_per_frame",
      "media.downscale_blend_ms_per_frame",
      "media.kernel_sum_ms_per_frame",
      "sim.replay_ms_per_frame",
      "sim.kernel_ms_per_frame",
      "loadgen.lag_p99_ms",
  };
  static const char* const kCounts[] = {
      "sp.tasks",
      "hinch.jobs_per_frame",
      "hinch.steals_per_frame",
      "hinch.idle_parks_per_frame",
      "hinch.reconfigurations_per_session",
      "sim.jobs_per_frame",
      "sim.l2_misses_per_frame",
      "obs.dropped_events",
  };
  static const char* const kRatios[] = {
      "xspcl.spec_cache.hit_ratio",
      "hinch.busy_frac",
      "components.serial_frac",
      "media.e2e_over_kernel_sum",
      "sim.l1_hit_rate",
      "obs.trace_overhead_frac",
  };
  for (const char* m : kMs) r->add_layer(m, 0, "ms");
  for (const char* m : kCounts) r->add_layer(m, 0, "count");
  for (const char* m : kRatios) r->add_layer(m, 0, "ratio");
}

void add_component_metrics(const std::vector<Span>& task_spans,
                           int64_t frames, Report* r) {
  static const char* const kComponentClasses[] = {
      "mjpeg_source", "jpeg_decode", "idct",  "yuv_sink",  "video_source",
      "blur",         "downscale",   "blend", "frame_sink"};
  if (frames <= 0) return;
  auto totals = aggregate(task_spans);
  for (const char* klass : kComponentClasses) {
    auto it = totals.find({"components", klass});
    double ms = it == totals.end() ? 0 : it->second.self_ms;
    r->add_layer(std::string("components.") + klass + ".ms_per_frame",
                 ms / static_cast<double>(frames), "ms");
  }
}

void add_front_end_metrics(const std::vector<Span>& spans, Report* r) {
  static const struct {
    const char* layer;
    const char* call;
    const char* metric;
  } kCalls[] = {{"xml", "parse", "xml.parse_ms"},
                {"xspcl", "elaborate", "xspcl.elaborate_ms"},
                {"sp", "passes", "sp.passes_ms"},
                {"hinch", "build", "hinch.build_ms"}};
  auto totals = aggregate(spans);
  for (const auto& c : kCalls) {
    auto it = totals.find({c.layer, c.call});
    if (it == totals.end() || it->second.count == 0) continue;
    r->add_layer(c.metric,
                 it->second.self_ms / static_cast<double>(it->second.count),
                 "ms");
  }
}

}  // namespace perfbench
