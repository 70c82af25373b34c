// mjpeg_1080p: frame-parallel 1920x1080 MJPEG decode of one synthetic
// clip, as repeated 96-frame sessions on a SessionExecutor with one
// worker per CPU, then the same job on one worker. Entropy decode, IDCT
// and the serial yuv_sink carry the time; hinch schedules only six jobs
// per frame, so kernel, sink and scaling fixes show here and scheduler
// or front-end fixes barely do.
#include <algorithm>

#include "apps/mjpeg.hpp"
#include "bench.hpp"
#include "components/clip_cache.hpp"
#include "components/sinks.hpp"
#include "hinch/runtime.hpp"
#include "hinch/session.hpp"
#include "media/jpeg.hpp"
#include "media/metrics.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "xspcl/spec_cache.hpp"

namespace perfbench {
namespace {

constexpr int kFrames = 96;      // frames per decode session
constexpr int kClipFrames = 8;   // distinct frames in the looping clip
constexpr int kSimFrames = 8;    // frames of the simulated leg
// Throughput is sampled per chunk of this many frames, so a short stall
// of the host moves one sample, not the median.
constexpr int kChunk = 16;
constexpr int kCompileReps = 5;
// A frame is late when it spends longer than this in the pipeline.
constexpr double kFrameLimitMs = 250;

struct SessionRun {
  bool ok = false;
  std::string error;
  double latency_ms = 0;  // submit -> wait() returned
  hinch::SessionResult result;
  uint64_t checksum = 0;
  int frames = 0;
  std::vector<Span> task_spans;
  uint64_t dropped = 0;
};

SessionRun run_session(hinch::SessionExecutor& exec, xspcl::SpecCache& cache,
                       const std::string& spec, int window,
                       const std::vector<std::string>* classes, int lane_base,
                       SpanLog& log) {
  SessionRun run;
  auto prog = [&] {
    auto s = log.scope("xspcl", "spec_cache.build_program");
    return cache.build_program(spec, hinch::ComponentRegistry::global());
  }();
  if (!prog.is_ok()) {
    run.error = prog.status().to_string();
    return run;
  }
  std::unique_ptr<obs::TraceSession> trace;
  if (classes != nullptr) trace = std::make_unique<obs::TraceSession>();
  hinch::SessionConfig cfg;
  cfg.run.iterations = kFrames;
  cfg.run.window = window;
  cfg.name = "mjpeg";
  cfg.trace = trace.get();
  cfg.record_frame_times = true;

  Clock::time_point t0 = Clock::now();
  hinch::SessionPtr session = [&] {
    auto s = log.scope("hinch", "submit");
    return exec.submit(std::move(prog).take(), cfg);
  }();
  run.result = [&] {
    auto s = log.scope("hinch", "wait");
    return session->wait();
  }();
  run.latency_ms = ms_between(t0, Clock::now());
  const components::SinkState* sink = find_sink(session->program());
  if (sink != nullptr) {
    run.checksum = sink->checksum();
    run.frames = sink->frames();
  }
  run.ok = sink != nullptr && run.result.status == hinch::SessionStatus::kDone &&
           run.frames == kFrames &&
           static_cast<int>(run.result.frame_done_ns.size()) == kFrames;
  if (!run.ok) run.error = "session did not retire every frame";
  if (trace != nullptr)
    run.dropped =
        collect_task_spans(*trace, *classes, lane_base, &run.task_spans);
  return run;
}

// Frame i enters the pipeline when frame i - window leaves it (the
// iteration window); its latency is the time until it leaves itself.
// Frames per second over successive chunks of kChunk frames; the first
// frame, which also pays the session start, is left out.
void chunk_rates(const hinch::SessionResult& r, std::vector<double>* fps) {
  const std::vector<uint64_t>& done = r.frame_done_ns;
  for (size_t i = kChunk; i < done.size(); i += kChunk) {
    uint64_t ns = done[i] - done[i - kChunk];
    if (ns > 0) fps->push_back(kChunk * 1e9 / static_cast<double>(ns));
  }
}

void frame_latencies(const hinch::SessionResult& r, int window,
                     std::vector<double>* latency, std::vector<double>* gaps) {
  const std::vector<uint64_t>& done = r.frame_done_ns;
  for (size_t i = 0; i < done.size(); ++i) {
    uint64_t entered = i >= static_cast<size_t>(window) ? done[i - window] : 0;
    latency->push_back(static_cast<double>(done[i] - entered) / 1e6);
    if (i > 0) gaps->push_back(static_cast<double>(done[i] - done[i - 1]) / 1e6);
  }
}

}  // namespace

void run_mjpeg(const Options& opt, SpanLog& log, Report* r) {
  const int workers = host_cpus();
  support::SplitMix64 rng(opt.seed);
  apps::MjpegDecodeConfig c;  // 1920x1080, quality 85, one IDCT slice
  c.seed = heavy_clip_seed(rng, c.width, c.height, c.quality, 1, 6);
  c.clip_frames = kClipFrames;
  c.frames = kFrames;
  c.window = 4;
  const std::string spec = apps::mjpeg_xspcl(c);

  // Inputs first, outside every timed region.
  components::ClipKey key{c.seed,          c.width,   c.height,
                          media::PixelFormat::kYuv420, c.clip_frames,
                          c.quality,       c.restart};
  std::shared_ptr<const media::MjpegClip> clip = [&] {
    auto s = log.scope("components", "cached_mjpeg_clip");
    return components::cached_mjpeg_clip(key);
  }();

  // Reference output: a serial decode of every clip frame, hashed in
  // playback order.
  std::vector<media::FramePtr> decoded;
  for (int i = 0; i < clip->frame_count(); ++i) {
    const std::vector<uint8_t>& bytes = clip->frame(i);
    auto s = log.scope("media", "jpeg::decode");
    auto f = media::jpeg::decode(bytes.data(), bytes.size());
    r->check(f.is_ok(), "serial reference decode of clip frame " +
                            std::to_string(i));
    if (!f.is_ok()) return;
    decoded.push_back(std::move(f).take());
  }
  auto reference = [&](int frames) {
    uint64_t h = media::kFnvBasis;
    for (int t = 0; t < frames; ++t)
      h = media::frame_hash(*decoded[static_cast<size_t>(t % kClipFrames)], h);
    return h;
  };
  const uint64_t ref_session = reference(kFrames);

  // setup_s: spec text -> built Program + constructed executor, cold cache.
  bool setup_ok = true;
  const double setup_s = setup_seconds([&] {
    Clock::time_point t0 = Clock::now();
    xspcl::SpecCache cold;
    auto prog = cold.build_program(spec, hinch::ComponentRegistry::global());
    hinch::SessionExecutor exec({workers, 0});
    setup_ok = setup_ok && prog.is_ok();
    return ms_between(t0, Clock::now()) / 1e3;
  });
  r->check(setup_ok, "setup build of the mjpeg spec");

  // The same graph on the simulator, recorded and replayed.
  SimLeg sim;
  {
    xspcl::SpecCache cache;
    auto prog = cache.build_program(spec, hinch::ComponentRegistry::global());
    r->check(prog.is_ok(), "sim build of the mjpeg spec");
    if (!prog.is_ok()) return;
    auto check = [&](hinch::Program& p, uint64_t) -> std::string {
      const components::SinkState* sink = find_sink(p);
      return sink != nullptr && sink->frames() == kSimFrames &&
                     sink->checksum() == reference(kSimFrames)
                 ? ""
                 : "differs from the serial decode";
    };
    sim = run_sim_leg(*prog.value(), kSimFrames, c.window, workers, true,
                      check, log);
    r->check(sim.output_error.empty(),
             "simulated decode output: " + sim.output_error);
    r->check(sim.replay_cycles == sim.cycles,
             "charge-trace replay reproduces the simulated cycles");
  }

  // Kernel ledger: the decode's kernels on one thread over the clip.
  media::FramePtr planes =
      media::make_frame(media::PixelFormat::kYuv420, c.width, c.height);
  DecodeLedger decode = decode_ledger(*clip, planes.get(), 5);
  double entropy_ms = decode.entropy_ms, idct_ms = decode.idct_ms;
  double hash_ms = ms_per_call(kClipFrames, 5, [&](int i) {
    (void)media::frame_hash(*decoded[static_cast<size_t>(i)]);
  });
  double kernel_sum = entropy_ms + idct_ms + hash_ms;

  // Per-layer front end: the spec through each layer, cold.
  Compiled compiled;
  std::vector<std::string> classes;
  if (opt.trace) {
    for (int i = 0; i < kCompileReps; ++i) compiled = compile_layered(spec, log);
    r->check(compiled.program != nullptr,
             "layered compile of the mjpeg spec: " + compiled.error);
    if (compiled.program == nullptr) return;
    classes = task_classes(*compiled.program, *compiled.graph);
  }

  // ---- timed: one worker per CPU, then one worker ----------------------
  xspcl::SpecCache cache;
  std::vector<double> fps_multi, fps_single, latency, gaps, run_ms,
      overhead_ms, traced_ms, untraced_ms;
  std::vector<Span> task_spans;
  double traced_wall_ms = 0, jobs = 0, reconfigs = 0;
  int64_t traced_frames = 0, multi_frames = 0;
  uint64_t dropped = 0;
  int multi_sessions = 0, untraced_attempted = 0;
  hinch::SessionExecutor::PoolStats pool_delta;

  auto leg = [&](int leg_workers, double budget_s, int min_sessions,
                 std::vector<double>* fps) {
    hinch::SessionExecutor exec({leg_workers, 0});
    hinch::SessionExecutor::PoolStats before = exec.pool_stats();
    Clock::time_point start = Clock::now();
    for (int n = 0; n < min_sessions ||
                    ms_between(start, Clock::now()) < budget_s * 1e3;
         ++n) {
      // In the traced run every other multi-worker session is traced, so
      // traced and untraced sessions sample the same conditions.
      bool traced = opt.trace && leg_workers > 1 && n % 2 == 1;
      SessionRun s =
          run_session(exec, cache, spec, c.window, traced ? &classes : nullptr,
                      1000 + 64 * n, log);
      r->check(s.ok && s.checksum == ref_session,
               support::format("%d-worker session %d output equals the "
                               "serial decode%s%s",
                               leg_workers, n, s.error.empty() ? "" : ": ",
                               s.error.c_str()));
      if (leg_workers > 1 && !traced) ++untraced_attempted;
      if (!s.ok) continue;
      if (leg_workers == 1) {
        chunk_rates(s.result, fps);
        continue;
      }
      ++multi_sessions;
      multi_frames += kFrames;
      jobs += static_cast<double>(s.result.jobs);
      reconfigs += static_cast<double>(s.result.sched.reconfigurations);
      if (traced) {
        traced_ms.push_back(s.latency_ms);
        traced_wall_ms += s.result.wall_seconds * 1e3;
        traced_frames += kFrames;
        dropped += s.dropped;
        task_spans.insert(task_spans.end(), s.task_spans.begin(),
                          s.task_spans.end());
        continue;
      }
      untraced_ms.push_back(s.latency_ms);
      chunk_rates(s.result, fps);
      frame_latencies(s.result, c.window, &latency, &gaps);
      run_ms.push_back(s.result.wall_seconds * 1e3);
      overhead_ms.push_back(s.latency_ms - s.result.wall_seconds * 1e3);
    }
    if (leg_workers > 1) {
      hinch::SessionExecutor::PoolStats after = exec.pool_stats();
      pool_delta.steals = after.steals - before.steals;
      pool_delta.idle_parks = after.idle_parks - before.idle_parks;
    }
  };
  leg(workers, 0.6 * opt.seconds, 3, &fps_multi);
  leg(1, 0.4 * opt.seconds, 2, &fps_single);

  // ---- end to end -----------------------------------------------------
  size_t on_time = static_cast<size_t>(
      std::count_if(latency.begin(), latency.end(),
                    [](double ms) { return ms <= kFrameLimitMs; }));
  size_t frames_expected = static_cast<size_t>(untraced_attempted) * kFrames;
  Tail p95 = tail(latency, 0.95);
  double fps_1w = median(fps_single);
  r->add_e2e("frames_per_s", median(fps_multi), "1/s");
  r->add_e2e("frames_per_s_1w", fps_1w, "1/s");
  r->add_e2e("session_latency_p50_ms", median(latency), "ms");
  r->add_e2e("session_latency_p95_ms", p95.value, "ms");
  r->add_e2e("deadline_met_frac",
             frames_expected == 0 ? 0
                                  : static_cast<double>(on_time) /
                                        static_cast<double>(frames_expected),
             "ratio", "frames decoded");
  r->add_e2e("sim_cycles_per_frame",
             static_cast<double>(sim.cycles) / kSimFrames, "cycles");
  r->add_e2e("setup_s", setup_s, "s");
  r->note(support::format(
      "session latency = per-frame time in the pipeline over %zu frames; "
      "p95 reported as %s; limit %.0f ms",
      latency.size(), describe(p95).c_str(), kFrameLimitMs));
  r->note(support::format(
      "frames_per_s: median of %zu %d-frame chunks on %d workers, "
      "frames_per_s_1w: of %zu on 1 worker",
      fps_multi.size(), kChunk, workers, fps_single.size()));

  // ---- per layer --------------------------------------------------------
  if (!opt.trace) return;
  add_front_end_metrics(log.spans(), r);
  r->add_layer("sp.tasks", compiled.tasks, "count");
  xspcl::SpecCache::Stats cs = cache.stats();
  r->add_layer("xspcl.spec_cache.hit_ratio",
               static_cast<double>(cs.hits) /
                   static_cast<double>(std::max<uint64_t>(1, cs.hits + cs.misses)),
               "ratio", "spec cache lookups");
  if (multi_frames > 0) {
    double f = static_cast<double>(multi_frames);
    r->add_layer("hinch.jobs_per_frame", jobs / f, "count");
    r->add_layer("hinch.steals_per_frame",
                 static_cast<double>(pool_delta.steals) / f, "count");
    r->add_layer("hinch.idle_parks_per_frame",
                 static_cast<double>(pool_delta.idle_parks) / f, "count");
    r->add_layer("hinch.reconfigurations_per_session",
                 reconfigs / multi_sessions, "count");
  }
  r->add_layer("hinch.busy_frac",
               busy_fraction(task_spans, traced_wall_ms, workers), "ratio",
               "traced session wall time x workers");
  Tail gap95 = tail(gaps, 0.95);
  r->add_layer("hinch.frame_gap_p95_ms", gap95.value, "ms");
  r->add_layer("hinch.session_run_ms_p50", median(run_ms), "ms");
  r->add_layer("hinch.session_overhead_ms_p50", median(overhead_ms), "ms");
  r->note("hinch.frame_gap_p95_ms reported as " + describe(gap95));

  add_component_metrics(task_spans, traced_frames, r);
  auto totals = aggregate(task_spans);
  double sink_ms = totals[{"components", "yuv_sink"}].self_ms;
  r->add_layer("components.serial_frac",
               traced_wall_ms > 0 ? sink_ms / traced_wall_ms : 0, "ratio",
               "traced session wall time");

  r->add_layer("media.entropy_ms_per_frame", entropy_ms, "ms");
  r->add_layer("media.idct_ms_per_frame", idct_ms, "ms");
  r->add_layer("media.frame_hash_ms_per_frame", hash_ms, "ms");
  r->add_layer("media.kernel_sum_ms_per_frame", kernel_sum, "ms");
  r->add_layer("media.e2e_over_kernel_sum",
               fps_1w > 0 ? (1e3 / fps_1w) / kernel_sum : 0, "ratio",
               "kernel sum ms per frame (numerator: 1-worker ms per frame)");

  r->add_layer("sim.replay_ms_per_frame", sim.replay_ms / kSimFrames, "ms");
  r->add_layer("sim.kernel_ms_per_frame",
               (sim.full_ms - sim.replay_ms) / kSimFrames, "ms");
  r->add_layer("sim.jobs_per_frame",
               static_cast<double>(sim.jobs) / kSimFrames, "count");
  r->add_layer("sim.l1_hit_rate", sim.l1_hit_rate, "ratio",
               "simulated chunk accesses");
  r->add_layer("sim.l2_misses_per_frame",
               static_cast<double>(sim.mem_fetches) / kSimFrames, "count");

  double untraced = median(untraced_ms);
  r->add_layer("obs.trace_overhead_frac",
               untraced > 0 ? median(traced_ms) / untraced - 1 : 0, "ratio",
               "untraced session latency");
  r->add_layer("obs.dropped_events", static_cast<double>(dropped), "count");
}

}  // namespace perfbench
