// jpip_sim: JPiP at paper scale (1280x720, 2 pips, factor 16, 45
// slices, 24 frames) on the SpaceCAKE-substitute simulator at 8 cores,
// on one host thread, beside the same job at 1 simulated core. The
// cache model and event engine carry the host time and no thread pool
// is involved, so simulator speed-ups show only here; the paper's own
// observable (cycles) is checked in the same run.
#include <algorithm>

#include "apps/jpip.hpp"
#include "bench.hpp"
#include "components/clip_cache.hpp"
#include "components/sinks.hpp"
#include "hinch/runtime.hpp"
#include "media/jpeg.hpp"
#include "media/kernels.hpp"
#include "media/metrics.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "xspcl/spec_cache.hpp"

namespace perfbench {
namespace {

constexpr int kFrames = 24;
constexpr int kCores = 8;
constexpr int kWindow = 5;
constexpr int kCompileReps = 5;
constexpr double kLimitMs = 30000;  // host time to simulate one session

struct SimRun {
  hinch::SimResult result;
  double ms = 0;
  uint64_t checksum = 0;
  int frames = 0;
};

SimRun simulate(hinch::Program& prog, int cores, obs::TraceSession* trace,
                hinch::ChargeTrace* record, SpanLog& log) {
  hinch::RunConfig run;
  run.iterations = kFrames;
  run.window = kWindow;
  hinch::SimParams params;
  params.cores = cores;
  params.trace = trace;
  params.record_trace = record;
  SimRun out;
  Clock::time_point t0 = Clock::now();
  out.result = [&] {
    auto s = log.scope("hinch", "run_on_sim");
    return hinch::run_on_sim(prog, run, params);
  }();
  out.ms = ms_between(t0, Clock::now());
  if (const components::SinkState* sink = find_sink(prog)) {
    out.checksum = sink->checksum();
    out.frames = sink->frames();
  }
  return out;
}

}  // namespace

void run_jpip(const Options& opt, SpanLog& log, Report* r) {
  support::SplitMix64 rng(opt.seed);
  apps::JpipConfig c;
  c.width = 1280;
  c.height = 720;
  c.frames = kFrames;
  c.pips = 2;
  c.factor = 16;
  c.slices = 45;
  c.clip_frames = 4;
  // Picture i reads the clip of seed pip_seed + i.
  c.bg_seed = heavy_clip_seed(rng, c.width, c.height, c.quality, 1, 6);
  c.pip_seed = heavy_clip_seed(rng, c.width, c.height, c.quality, c.pips, 16);
  const std::string spec = apps::jpip_xspcl(c);

  // Inputs first: the three MJPEG clips, through the clip cache.
  components::ClipKey bg_key{c.bg_seed, c.width, c.height,
                             media::PixelFormat::kYuv420, c.clip_frames,
                             c.quality};
  std::vector<std::shared_ptr<const media::MjpegClip>> clips;
  {
    auto s = log.scope("components", "cached_mjpeg_clip");
    clips.push_back(components::cached_mjpeg_clip(bg_key));
    for (int i = 0; i < c.pips; ++i) {
      components::ClipKey key = bg_key;
      key.seed = c.pip_seed + static_cast<uint64_t>(i);
      clips.push_back(components::cached_mjpeg_clip(key));
    }
  }

  bool setup_ok = true;
  const double setup_s = setup_seconds([&] {
    Clock::time_point t0 = Clock::now();
    xspcl::SpecCache cold;
    auto prog = cold.build_program(spec, hinch::ComponentRegistry::global());
    setup_ok = setup_ok && prog.is_ok();
    return ms_between(t0, Clock::now()) / 1e3;
  });
  r->check(setup_ok, "setup build of the jpip spec");

  // Kernel ledger: what one output frame costs in kernels on one thread
  // (three decodes, two downscale+blend pips, the sink's hash).
  media::FramePtr frame =
      media::make_frame(media::PixelFormat::kYuv420, c.width, c.height);
  media::FramePtr canvas =
      media::make_frame(media::PixelFormat::kYuv420, c.width, c.height);
  DecodeLedger decode = decode_ledger(*clips[0], frame.get(), 5);
  double entropy_ms = decode.entropy_ms, idct_ms = decode.idct_ms;
  int px = 0, py = 0;
  apps::jpip_position(c, 0, &px, &py);
  double pip_ms = ms_per_call(c.clip_frames, 5, [&](int) {
    for (int p = 0; p < 3; ++p) {
      int shift = p == 0 ? 0 : 1;
      media::PlaneView dst = canvas->plane(p);
      media::downscale_blend(frame->plane(p), dst, c.factor, px >> shift,
                             py >> shift, c.alpha, 0, dst.height);
    }
  });
  double hash_ms =
      ms_per_call(c.clip_frames, 5, [&](int) { (void)media::frame_hash(*canvas); });
  const int decodes = 1 + c.pips;
  double kernel_sum =
      decodes * (entropy_ms + idct_ms) + c.pips * pip_ms + hash_ms;

  xspcl::SpecCache cache;
  auto built = [&] {
    auto s = log.scope("xspcl", "spec_cache.build_program");
    return cache.build_program(spec, hinch::ComponentRegistry::global());
  }();
  r->check(built.is_ok(), "build of the jpip spec");
  if (!built.is_ok()) return;
  hinch::Program& prog = *built.value();

  // The first run records the charges a later replay feeds back.
  hinch::ChargeTrace charges;
  SimRun first = simulate(prog, kCores, nullptr, &charges, log);

  // ---- timed: 8 simulated cores, then the same job on 1 ---------------
  std::vector<double> run_ms, run_ms_1, traced_ms;
  Clock::time_point start = Clock::now();
  // At most 20 sessions, so the tail is always their maximum (tail()).
  for (int n = 0; n < 3 || (n < 20 && ms_between(start, Clock::now()) <
                                          0.65e3 * opt.seconds);
       ++n) {
    SimRun s = simulate(prog, kCores, nullptr, nullptr, log);
    r->check(s.result.total_cycles == first.result.total_cycles &&
                 s.checksum == first.checksum && s.frames == kFrames,
             support::format("8-core run %d repeats the cycles and output", n));
    run_ms.push_back(s.ms);
  }
  start = Clock::now();
  for (int n = 0; n < 2 || ms_between(start, Clock::now()) < 0.35e3 * opt.seconds;
       ++n) {
    SimRun s = simulate(prog, 1, nullptr, nullptr, log);
    r->check(s.checksum == first.checksum && s.frames == kFrames,
             support::format("1-core run %d output equals the 8-core output", n));
    run_ms_1.push_back(s.ms);
  }

  // Replay: the simulator alone, kernels skipped.
  std::vector<double> replay_ms;
  uint64_t replay_cycles = 0;
  for (int n = 0; n < 3; ++n) {
    hinch::RunConfig run;
    run.iterations = kFrames;
    run.window = kWindow;
    hinch::SimParams params;
    params.cores = kCores;
    params.replay_trace = &charges;
    Clock::time_point t0 = Clock::now();
    hinch::SimResult rr = [&] {
      auto s = log.scope("hinch", "run_on_sim.replay");
      return hinch::run_on_sim(prog, run, params);
    }();
    replay_ms.push_back(ms_between(t0, Clock::now()));
    replay_cycles = rr.total_cycles;
  }
  r->check(replay_cycles == first.result.total_cycles,
           "charge-trace replay reproduces the simulated cycles");

  Tail p95 = tail(run_ms, 0.95);
  size_t on_time = static_cast<size_t>(std::count_if(
      run_ms.begin(), run_ms.end(), [](double ms) { return ms <= kLimitMs; }));
  r->add_e2e("frames_per_s", kFrames / (median(run_ms) / 1e3), "1/s");
  r->add_e2e("frames_per_s_1w", kFrames / (median(run_ms_1) / 1e3), "1/s");
  r->add_e2e("session_latency_p50_ms", median(run_ms), "ms");
  r->add_e2e("session_latency_p95_ms", p95.value, "ms");
  r->add_e2e("deadline_met_frac",
             static_cast<double>(on_time) / static_cast<double>(run_ms.size()),
             "ratio", "simulated sessions");
  r->add_e2e("sim_cycles_per_frame",
             static_cast<double>(first.result.total_cycles) / kFrames,
             "cycles");
  r->add_e2e("setup_s", setup_s, "s");
  r->note(support::format(
      "session = one %d-frame simulation at %d cores (host ms); p95 reported "
      "as %s; %zu 8-core and %zu 1-core runs",
      kFrames, kCores, describe(p95).c_str(), run_ms.size(), run_ms_1.size()));

  if (!opt.trace) return;
  // Traced run, alternated with untraced ones for the overhead.
  uint64_t dropped = 0;
  std::vector<double> untraced_ms;
  for (int n = 0; n < 3; ++n) {
    obs::TraceSession trace;
    SimRun t = simulate(prog, kCores, &trace, nullptr, log);
    r->check(t.result.total_cycles == first.result.total_cycles,
             "tracing leaves the simulated cycles unchanged");
    traced_ms.push_back(t.ms);
    dropped += trace.dropped();
    untraced_ms.push_back(simulate(prog, kCores, nullptr, nullptr, log).ms);
  }
  for (int i = 0; i < kCompileReps; ++i) {
    Compiled cl = compile_layered(spec, log);
    r->check(cl.program != nullptr, "layered compile: " + cl.error);
    r->add_layer("sp.tasks", cl.tasks, "count");
  }
  add_front_end_metrics(log.spans(), r);
  xspcl::SpecCache::Stats cs = cache.stats();
  r->add_layer("xspcl.spec_cache.hit_ratio",
               static_cast<double>(cs.hits) /
                   static_cast<double>(std::max<uint64_t>(1, cs.hits + cs.misses)),
               "ratio", "spec cache lookups");
  const hinch::SimResult& fr = first.result;
  r->add_layer("hinch.jobs_per_frame",
               static_cast<double>(fr.sched.jobs_executed) / kFrames, "count");
  r->add_layer("hinch.busy_frac", fr.utilization(), "ratio",
               "simulated cycles x cores");
  r->add_layer("hinch.session_run_ms_p50", median(run_ms), "ms");

  r->add_layer("media.entropy_ms_per_frame", decodes * entropy_ms, "ms");
  r->add_layer("media.idct_ms_per_frame", decodes * idct_ms, "ms");
  r->add_layer("media.downscale_blend_ms_per_frame", c.pips * pip_ms, "ms");
  r->add_layer("media.frame_hash_ms_per_frame", hash_ms, "ms");
  r->add_layer("media.kernel_sum_ms_per_frame", kernel_sum, "ms");
  double full_per_frame = median(run_ms) / kFrames;
  r->add_layer("media.e2e_over_kernel_sum", full_per_frame / kernel_sum,
               "ratio",
               "kernel sum ms per frame (numerator: 8-core simulation host "
               "ms per frame)");

  double replay_per_frame = median(replay_ms) / kFrames;
  r->add_layer("sim.replay_ms_per_frame", replay_per_frame, "ms");
  r->add_layer("sim.kernel_ms_per_frame", full_per_frame - replay_per_frame,
               "ms");
  r->add_layer("sim.jobs_per_frame", static_cast<double>(fr.jobs) / kFrames,
               "count");
  r->add_layer("sim.l1_hit_rate", fr.mem.l1_hit_rate(), "ratio",
               "simulated chunk accesses");
  r->add_layer("sim.l2_misses_per_frame",
               static_cast<double>(fr.mem.mem_fetches) / kFrames, "count");
  r->add_layer("obs.trace_overhead_frac",
               median(traced_ms) / median(untraced_ms) - 1, "ratio",
               "untraced simulation host time");
  r->add_layer("obs.dropped_events", static_cast<double>(dropped), "count");
}

}  // namespace perfbench
