// tenants_open: the hinchd shape. One generator thread opens 24-frame
// 640x480 sessions (blur k3, blur k5, reconfigurable 2-pip PiP) in an
// open loop onto one SessionExecutor with nproc - 1 workers and one
// SpecCache. About one session in eight uses a spec the cache has never
// seen (same clips, other slicing or toggle period). Many short sessions
// of small jobs: admission, teardown, reconfiguration, Program::build and
// the front-end miss path dominate, on filter kernels instead of decode.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <thread>

#include "apps/blur.hpp"
#include "apps/pip.hpp"
#include "bench.hpp"
#include "components/clip_cache.hpp"
#include "components/sinks.hpp"
#include "hinch/runtime.hpp"
#include "hinch/session.hpp"
#include "media/kernels.hpp"
#include "media/metrics.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "xspcl/spec_cache.hpp"

namespace perfbench {
namespace {

constexpr int kFrames = 24;
constexpr int kWidth = 640;
constexpr int kHeight = 480;
constexpr int kClipFrames = 8;
constexpr int kWindow = 5;             // hinchd's default stream depth
// Sessions/s per worker: about a third of the measured capacity on a
// 4-core Xeon, so the loop runs well below saturation.
constexpr double kRatePerWorker = 20;
constexpr double kLimitMs = 100;       // session latency limit
constexpr int kNewSpecEvery = 8;
constexpr int kWaiters = 8;
constexpr int kSoloReps = 15;
constexpr int kToggle = 12;

struct Spec {
  std::string text;
  std::string app;  // blur3, blur5 or pip
};

struct Seeds {
  uint64_t blur = 0, bg = 0, pip = 0;
};

Spec blur_spec(const Seeds& s, int kernel, int slices) {
  apps::BlurConfig c;
  c.width = kWidth;
  c.height = kHeight;
  c.frames = kFrames;
  c.kernel = kernel;
  c.slices = slices;
  c.clip_frames = kClipFrames;
  c.seed = s.blur;
  return {apps::blur_xspcl(c), kernel == 3 ? "blur3" : "blur5"};
}

// PiP sinks keep their frames: where the second picture appears depends
// on when its toggle event is polled, so PiP output is checked frame by
// frame (see output_error).
apps::PipConfig pip_config(const Seeds& s, int slices, int toggle, int pips,
                           bool reconfigurable) {
  apps::PipConfig c;
  c.width = kWidth;
  c.height = kHeight;
  c.frames = kFrames;
  c.pips = pips;
  c.factor = 4;
  c.slices = slices;
  c.reconfigurable = reconfigurable;
  c.toggle_period = toggle;
  c.clip_frames = kClipFrames;
  c.bg_seed = s.bg;
  c.pip_seed = s.pip;
  c.store_output = true;
  return c;
}

Spec pip_spec(const Seeds& s, int slices, int toggle) {
  return {apps::pip_xspcl(pip_config(s, slices, toggle, 2, true)), "pip"};
}

// Specs the cache has not seen: the base apps with other slice counts
// or toggle periods, so every input clip stays the same.
std::vector<Spec> variant_specs(const Seeds& s, support::SplitMix64& rng) {
  std::vector<Spec> out;
  for (int kernel : {3, 5})
    for (int slices = 1; slices <= 32; ++slices)
      if (slices != 8) out.push_back(blur_spec(s, kernel, slices));
  for (int slices : {1, 2, 3, 4, 6, 8, 12, 16})
    for (int toggle : {2, 3, 4, 6, 8, 16})
      out.push_back(pip_spec(s, slices, toggle));
  for (size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[rng.next_below(i)]);
  return out;
}

struct Outcome {
  int spec = 0;
  bool traced = false;
  bool ok = false;
  std::string error;
  double due_ms = 0;
  double lag_ms = 0;
  double done_ms = 0;
  hinch::SessionResult result;
  std::vector<Span> task_spans;
  uint64_t dropped = 0;
};

struct Pending {
  size_t index = 0;
  hinch::SessionPtr session;
  std::unique_ptr<obs::TraceSession> trace;
};

// Sessions wait here for one of the waiter threads; a waiter records
// when wait() returns, so completion order never delays a stamp.
class WaitQueue {
 public:
  void push(Pending p) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::move(p));
    }
    cv_.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  bool pop(Pending* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> items_;
  bool closed_ = false;
};

// One session on a fresh single-worker executor: the solo reference.
struct Solo {
  hinch::SessionPtr session;  // null when the spec failed to build
  hinch::SessionResult result;
  double ms = 0;
};

Solo run_solo(const std::string& text, SpanLog& log) {
  Solo solo;
  xspcl::SpecCache cache;
  auto prog = cache.build_program(text, hinch::ComponentRegistry::global());
  if (!prog.is_ok()) return solo;
  hinch::SessionExecutor exec({1, 0});
  hinch::SessionConfig cfg;
  cfg.run.iterations = kFrames;
  cfg.run.window = kWindow;
  cfg.name = "solo";
  Clock::time_point t0 = Clock::now();
  solo.session = exec.submit(std::move(prog).take(), cfg);
  solo.result = [&] {
    auto span = log.scope("hinch", "wait");
    return solo.session->wait();
  }();
  solo.ms = ms_between(t0, Clock::now());
  return solo;
}

// Outputs every tenant must reproduce, from solo runs on one worker.
struct References {
  uint64_t blur[2] = {0, 0};  // chained checksums, kernel 3 and 5
  // Static PiP frames: the first picture only, and both pictures.
  std::vector<media::FramePtr> one_pip, two_pips;
};

// Empty when the output is right. Blur: the chained checksum equals the
// solo run of the base spec (slicing never changes the output). PiP:
// every frame equals the one- or the two-picture reference frame, the
// second picture starts disabled, and the output switches between the
// two at most once per reconfiguration (two toggles polled together
// make a splice that changes nothing).
std::string output_error(hinch::Program& prog, const std::string& app,
                         uint64_t reconfigurations, const References& ref) {
  const components::SinkState* sink = find_sink(prog);
  if (sink == nullptr || sink->frames() != kFrames)
    return "the sink did not receive every frame";
  if (app != "pip")
    return sink->checksum() == ref.blur[app == "blur5" ? 1 : 0]
               ? ""
               : "checksum differs from the solo reference";
  if (ref.one_pip.size() != kFrames || ref.two_pips.size() != kFrames)
    return "no PiP reference";
  uint64_t switches = 0;
  bool shown = false;
  for (int t = 0; t < kFrames; ++t) {
    media::FramePtr f = sink->frame(t);
    size_t i = static_cast<size_t>(t);
    bool two = f->equals(*ref.two_pips[i]);
    if (!two && !f->equals(*ref.one_pip[i]))
      return support::format("frame %d matches neither reference", t);
    if (two != shown) ++switches;
    shown = two;
  }
  if (switches > reconfigurations)
    return support::format("%llu output switches for %llu reconfigurations",
                           static_cast<unsigned long long>(switches),
                           static_cast<unsigned long long>(reconfigurations));
  return "";
}

// Ledger of the filter kernels over the workload's own clips, one thread.
struct Ledger {
  double blur3 = 0, blur5 = 0, pip = 0, hash_gray = 0, hash_yuv = 0;
};

Ledger kernel_ledger(const Seeds& s) {
  auto key = [](uint64_t seed) {
    return components::ClipKey{seed,        kWidth, kHeight,
                               media::PixelFormat::kYuv420, kClipFrames, 0};
  };
  auto blur_clip = components::cached_raw_clip(key(s.blur));
  auto bg_clip = components::cached_raw_clip(key(s.bg));
  auto pip_clip = components::cached_raw_clip(key(s.pip));
  media::FramePtr tmp =
      media::make_frame(media::PixelFormat::kGray, kWidth, kHeight);
  media::FramePtr out =
      media::make_frame(media::PixelFormat::kGray, kWidth, kHeight);
  media::FramePtr canvas =
      media::make_frame(media::PixelFormat::kYuv420, kWidth, kHeight);
  Ledger l;
  for (int kernel : {3, 5}) {
    double ms = ms_per_call(kClipFrames, 5, [&](int i) {
      media::ConstPlaneView y = blur_clip->frame(i)->plane(0);
      media::blur_h(y, tmp->plane(0), kernel, 0, kHeight);
      media::blur_v(tmp->plane(0), out->plane(0), kernel, 0, kHeight);
    });
    (kernel == 3 ? l.blur3 : l.blur5) = ms;
  }
  apps::PipConfig pc = pip_config(s, 8, kToggle, 2, true);
  int x = 0, y = 0;
  apps::pip_position(pc, 0, &x, &y);
  // One picture-in-picture: all three planes downscaled and blended.
  double per_pip = ms_per_call(kClipFrames, 5, [&](int i) {
    const media::Frame& src = *pip_clip->frame(i);
    for (int p = 0; p < 3; ++p) {
      int shift = p == 0 ? 0 : 1;
      media::PlaneView dst = canvas->plane(p);
      media::downscale_blend(src.plane(p), dst, pc.factor, x >> shift,
                             y >> shift, pc.alpha, 0, dst.height);
    }
  });
  // pip2 is enabled for half of each session (toggled at frame 12 of 24).
  l.pip = 1.5 * per_pip;
  l.hash_gray = ms_per_call(kClipFrames, 5, [&](int) {
    (void)media::frame_hash(*out);
  });
  l.hash_yuv = ms_per_call(kClipFrames, 5, [&](int i) {
    (void)media::frame_hash(*bg_clip->frame(i));
  });
  return l;
}

}  // namespace

void run_tenants(const Options& opt, SpanLog& log, Report* r) {
  const int workers = std::max(1, host_cpus() - 1);
  const double rate = kRatePerWorker * workers;
  support::SplitMix64 rng(opt.seed);
  Seeds seeds;
  seeds.blur = 1 + rng.next_below(1u << 20);
  seeds.bg = 1 + rng.next_below(1u << 20);
  seeds.pip = seeds.bg + 1000;

  std::vector<Spec> specs = {blur_spec(seeds, 3, 8), blur_spec(seeds, 5, 8),
                             pip_spec(seeds, 8, kToggle)};
  const size_t kBase = specs.size();
  std::vector<Spec> variants = variant_specs(seeds, rng);

  // Arrival schedule and spec mix, all from the seed. Session i is due
  // at a uniformly random point of its own 1/rate slot, so the rate is
  // fixed while arrivals still jitter. The mix is stratified: exactly one
  // session in kNewSpecEvery opens a new spec and the rest split evenly
  // over the base apps, in seeded random order.
  const double window_s = 0.7 * opt.seconds;
  const size_t n = static_cast<size_t>(rate * window_s + 0.5);
  std::vector<double> due_ms(n);
  for (size_t i = 0; i < n; ++i)
    due_ms[i] = (static_cast<double>(i) + rng.next_double()) / rate * 1e3;
  std::vector<int> mix(n);
  for (size_t i = 0; i < n; ++i)
    mix[i] = i % kNewSpecEvery == 0 ? -1 : static_cast<int>(i % kBase);
  for (size_t i = n; i > 1; --i) std::swap(mix[i - 1], mix[rng.next_below(i)]);
  size_t next_variant = 0;
  for (int& m : mix) {
    if (m >= 0) continue;
    m = static_cast<int>(specs.size());
    specs.push_back(variants[next_variant++ % variants.size()]);
  }

  // Inputs first: every clip any spec reads, through the clip cache.
  {
    auto s = log.scope("components", "cached_raw_clip");
    for (uint64_t seed : {seeds.blur, seeds.bg, seeds.pip, seeds.pip + 1})
      components::cached_raw_clip({seed, kWidth, kHeight,
                                   media::PixelFormat::kYuv420, kClipFrames,
                                   0});
  }

  // setup_s: a cold server — the three base specs built, pool started.
  bool setup_ok = true;
  const double setup_s = setup_seconds([&] {
    Clock::time_point t0 = Clock::now();
    xspcl::SpecCache cold;
    std::vector<std::unique_ptr<hinch::Program>> progs;
    for (size_t k = 0; k < kBase; ++k) {
      auto prog = cold.build_program(specs[k].text,
                                     hinch::ComponentRegistry::global());
      setup_ok = setup_ok && prog.is_ok();
      if (prog.is_ok()) progs.push_back(std::move(prog).take());
    }
    hinch::SessionExecutor exec({workers, 0});
    return ms_between(t0, Clock::now()) / 1e3;
  });
  r->check(setup_ok, "setup build of the base tenant specs");

  // References: static PiP frames, then the base specs solo on one
  // worker, repeated; their times give frames_per_s_1w.
  References ref;
  for (int pips : {1, 2}) {
    Solo solo = run_solo(
        apps::pip_xspcl(pip_config(seeds, 8, kToggle, pips, false)), log);
    const components::SinkState* sink =
        solo.session ? find_sink(solo.session->program()) : nullptr;
    r->check(sink != nullptr && sink->frames() == kFrames,
             support::format("static %d-picture PiP reference", pips));
    if (sink == nullptr || sink->frames() != kFrames) return;
    for (int t = 0; t < kFrames; ++t)
      (pips == 1 ? ref.one_pip : ref.two_pips).push_back(sink->frame(t));
  }
  std::vector<double> solo_ms_per_frame;
  for (size_t k = 0; k < kBase; ++k) {
    std::vector<double> ms;
    for (int rep = 0; rep < kSoloReps; ++rep) {
      Solo solo = run_solo(specs[k].text, log);
      const components::SinkState* sink =
          solo.session ? find_sink(solo.session->program()) : nullptr;
      if (k < 2 && rep == 0 && sink != nullptr)
        ref.blur[k] = sink->checksum();
      std::string error =
          solo.session ? output_error(solo.session->program(), specs[k].app,
                                      solo.result.sched.reconfigurations, ref)
                       : "build failed";
      r->check(error.empty(), "solo run of " + specs[k].app + ": " + error);
      ms.push_back(solo.ms / kFrames);
    }
    solo_ms_per_frame.push_back(median(ms));
  }

  // The base specs on the simulator (replayed where no manager runs).
  std::vector<SimLeg> sims;
  for (size_t k = 0; k < kBase; ++k) {
    xspcl::SpecCache cache;
    auto prog =
        cache.build_program(specs[k].text, hinch::ComponentRegistry::global());
    r->check(prog.is_ok(), "sim build of " + specs[k].app);
    if (!prog.is_ok()) return;
    bool replay = prog.value()->managers().empty();
    auto check = [&](hinch::Program& p, uint64_t reconfigurations) {
      return output_error(p, specs[k].app, reconfigurations, ref);
    };
    sims.push_back(run_sim_leg(*prog.value(), kFrames, kWindow, workers,
                               replay, check, log));
    r->check(sims.back().output_error.empty(),
             "simulated " + specs[k].app + ": " + sims.back().output_error);
    if (replay)
      r->check(sims.back().replay_cycles == sims.back().cycles,
               "charge-trace replay of " + specs[k].app +
                   " reproduces the simulated cycles");
  }

  Ledger ledger = kernel_ledger(seeds);

  // Traced run: every distinct spec through the layers, cold, which also
  // names the component class of every task.
  std::vector<std::vector<std::string>> classes(specs.size());
  std::vector<double> sp_tasks;
  if (opt.trace) {
    for (size_t k = 0; k < specs.size(); ++k) {
      Compiled c = compile_layered(specs[k].text, log);
      r->check(c.program != nullptr, "layered compile: " + c.error);
      if (c.program == nullptr) return;
      classes[k] = task_classes(*c.program, *c.graph);
      if (k < kBase) sp_tasks.push_back(c.tasks);
    }
  }

  // ---- timed: the open loop ----------------------------------------------
  hinch::SessionExecutor exec({workers, 0});
  xspcl::SpecCache cache;
  std::vector<Outcome> outcomes(n);
  WaitQueue queue;
  hinch::SessionExecutor::PoolStats before = exec.pool_stats();
  Clock::time_point t0 = Clock::now();
  auto since_t0 = [&] { return ms_between(t0, Clock::now()); };

  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      Pending p;
      while (queue.pop(&p)) {
        Outcome& o = outcomes[p.index];
        o.result = [&] {
          auto s = log.scope("hinch", "wait");
          return p.session->wait();
        }();
        o.done_ms = since_t0();
        o.error = o.result.status == hinch::SessionStatus::kDone &&
                          o.result.iterations_done == kFrames
                      ? output_error(p.session->program(),
                                     specs[static_cast<size_t>(o.spec)].app,
                                     o.result.sched.reconfigurations, ref)
                      : "session did not retire every frame";
        o.ok = o.error.empty();
        if (p.trace != nullptr)
          o.dropped = collect_task_spans(
              *p.trace, classes[static_cast<size_t>(o.spec)],
              1000 + 64 * static_cast<int>(p.index), &o.task_spans);
        p = Pending{};
      }
    });
  }

  std::thread generator([&] {
    for (size_t i = 0; i < n; ++i) {
      Outcome& o = outcomes[i];
      o.spec = mix[i];
      o.due_ms = due_ms[i];
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(o.due_ms)));
      o.lag_ms = since_t0() - o.due_ms;
      const Spec& spec = specs[static_cast<size_t>(o.spec)];
      auto prog = [&] {
        auto s = log.scope("xspcl", "spec_cache.build_program");
        return cache.build_program(spec.text,
                                   hinch::ComponentRegistry::global());
      }();
      if (!prog.is_ok()) {
        o.error = prog.status().to_string();
        o.done_ms = since_t0();
        continue;
      }
      Pending p;
      p.index = i;
      o.traced = opt.trace && i % 2 == 1;
      if (o.traced) p.trace = std::make_unique<obs::TraceSession>(1u << 14);
      hinch::SessionConfig cfg;
      cfg.run.iterations = kFrames;
      cfg.run.window = kWindow;
      cfg.name = spec.app;
      cfg.trace = p.trace.get();
      cfg.record_frame_times = true;
      p.session = [&] {
        auto s = log.scope("hinch", "submit");
        return exec.submit(std::move(prog).take(), cfg);
      }();
      queue.push(std::move(p));
    }
    queue.close();
  });
  generator.join();
  for (std::thread& t : waiters) t.join();
  hinch::SessionExecutor::PoolStats after = exec.pool_stats();
  xspcl::SpecCache::Stats cache_stats = cache.stats();

  // ---- results ----------------------------------------------------------
  std::vector<double> latency, lags, run_ms, overhead_ms, gaps, traced_run;
  std::vector<Span> task_spans;
  size_t on_time = 0;
  double frames_done = 0, jobs = 0, reconfigs = 0, traced_wall_ms = 0,
         last_done_ms = 0;
  int64_t traced_frames = 0;
  uint64_t dropped = 0;
  for (size_t i = 0; i < n; ++i) {
    const Outcome& o = outcomes[i];
    lags.push_back(o.lag_ms);
    r->check(o.ok, support::format(
                       "session %zu (%s): %s", i,
                       specs[static_cast<size_t>(o.spec)].app.c_str(),
                       o.error.c_str()));
    if (!o.ok) continue;
    double lat = o.done_ms - o.due_ms;
    double run = o.result.wall_seconds * 1e3;
    latency.push_back(lat);
    if (lat <= kLimitMs) ++on_time;
    frames_done += kFrames;
    jobs += static_cast<double>(o.result.jobs);
    reconfigs += static_cast<double>(o.result.sched.reconfigurations);
    last_done_ms = std::max(last_done_ms, o.done_ms);
    if (o.traced) {
      traced_run.push_back(run);
      traced_wall_ms += run;
      traced_frames += kFrames;
      dropped += o.dropped;
      task_spans.insert(task_spans.end(), o.task_spans.begin(),
                        o.task_spans.end());
      continue;
    }
    run_ms.push_back(run);
    overhead_ms.push_back(lat - run);
    const std::vector<uint64_t>& done = o.result.frame_done_ns;
    for (size_t f = 1; f < done.size(); ++f)
      gaps.push_back(static_cast<double>(done[f] - done[f - 1]) / 1e6);
  }

  // The simulator's cycles per frame for this seed's mix: each base app
  // weighted by its share of sessions (a variant counts as its base app).
  double ms_per_frame_1w = mean(solo_ms_per_frame);
  double sim_cycles = 0;
  for (size_t i = 0; i < n; ++i) {
    const std::string& app = specs[static_cast<size_t>(mix[i])].app;
    size_t k = app == "blur3" ? 0 : app == "blur5" ? 1 : 2;
    sim_cycles += static_cast<double>(sims[k].cycles) / kFrames;
  }
  Tail p95 = tail(latency, 0.95);
  r->add_e2e("frames_per_s",
             last_done_ms > 0 ? frames_done / (last_done_ms / 1e3) : 0, "1/s");
  r->add_e2e("frames_per_s_1w", ms_per_frame_1w > 0 ? 1e3 / ms_per_frame_1w : 0,
             "1/s");
  r->add_e2e("session_latency_p50_ms", median(latency), "ms");
  r->add_e2e("session_latency_p95_ms", p95.value, "ms");
  r->add_e2e("deadline_met_frac",
             n == 0 ? 0 : static_cast<double>(on_time) / static_cast<double>(n),
             "ratio", "sessions attempted");
  r->add_e2e("sim_cycles_per_frame",
             n == 0 ? 0 : sim_cycles / static_cast<double>(n), "cycles");
  r->add_e2e("setup_s", setup_s, "s");
  r->note(support::format(
      "open loop: %zu sessions at %.0f/s over %.1f s on %d workers, %zu new "
      "specs; p95 reported as %s; limit %.0f ms",
      n, rate, window_s, workers, specs.size() - kBase, describe(p95).c_str(),
      kLimitMs));

  if (!opt.trace) return;
  add_front_end_metrics(log.spans(), r);
  r->add_layer("sp.tasks", mean(sp_tasks), "count");
  r->add_layer("xspcl.spec_cache.hit_ratio",
               static_cast<double>(cache_stats.hits) /
                   static_cast<double>(std::max<uint64_t>(
                       1, cache_stats.hits + cache_stats.misses)),
               "ratio", "spec cache lookups");
  if (frames_done > 0) {
    r->add_layer("hinch.jobs_per_frame", jobs / frames_done, "count");
    r->add_layer("hinch.steals_per_frame",
                 static_cast<double>(after.steals - before.steals) /
                     frames_done,
                 "count");
    r->add_layer("hinch.idle_parks_per_frame",
                 static_cast<double>(after.idle_parks - before.idle_parks) /
                     frames_done,
                 "count");
    r->add_layer("hinch.reconfigurations_per_session",
                 reconfigs / static_cast<double>(latency.size()), "count");
  }
  r->add_layer("hinch.busy_frac",
               busy_fraction(task_spans, traced_wall_ms, workers), "ratio",
               "traced session run time x workers");
  Tail gap95 = tail(gaps, 0.95);
  r->add_layer("hinch.frame_gap_p95_ms", gap95.value, "ms");
  r->add_layer("hinch.session_run_ms_p50", median(run_ms), "ms");
  r->add_layer("hinch.session_overhead_ms_p50", median(overhead_ms), "ms");
  add_component_metrics(task_spans, traced_frames, r);

  double blur = (ledger.blur3 + ledger.blur5) / 2;
  double hash = (2 * ledger.hash_gray + ledger.hash_yuv) / 3;
  double kernel_sum = (ledger.blur3 + ledger.blur5 + ledger.pip) / 3 + hash;
  r->add_layer("media.blur_ms_per_frame", blur, "ms");
  r->add_layer("media.downscale_blend_ms_per_frame", ledger.pip, "ms");
  r->add_layer("media.frame_hash_ms_per_frame", hash, "ms");
  r->add_layer("media.kernel_sum_ms_per_frame", kernel_sum, "ms");
  r->add_layer("media.e2e_over_kernel_sum",
               kernel_sum > 0 ? ms_per_frame_1w / kernel_sum : 0, "ratio",
               "kernel sum ms per frame of the base mix (numerator: 1-worker "
               "solo ms per frame)");

  std::vector<double> replay_ms, kernel_ms, sim_jobs, l1, l2;
  for (const SimLeg& s : sims) {
    if (s.replay_ms > 0) {
      replay_ms.push_back(s.replay_ms / kFrames);
      kernel_ms.push_back((s.full_ms - s.replay_ms) / kFrames);
    }
    sim_jobs.push_back(static_cast<double>(s.jobs) / kFrames);
    l1.push_back(s.l1_hit_rate);
    l2.push_back(static_cast<double>(s.mem_fetches) / kFrames);
  }
  r->add_layer("sim.replay_ms_per_frame", mean(replay_ms), "ms");
  r->add_layer("sim.kernel_ms_per_frame", mean(kernel_ms), "ms");
  r->add_layer("sim.jobs_per_frame", mean(sim_jobs), "count");
  r->add_layer("sim.l1_hit_rate", mean(l1), "ratio",
               "simulated chunk accesses");
  r->add_layer("sim.l2_misses_per_frame", mean(l2), "count");

  double untraced = median(run_ms);
  r->add_layer("obs.trace_overhead_frac",
               untraced > 0 ? median(traced_run) / untraced - 1 : 0, "ratio",
               "untraced session run time");
  r->add_layer("obs.dropped_events", static_cast<double>(dropped), "count");
  Tail lag99 = tail(lags, 0.99);
  r->add_layer("loadgen.lag_p99_ms", lag99.value, "ms");
  r->note("loadgen.lag_p99_ms reported as " + describe(lag99) +
          ", hinch.frame_gap_p95_ms as " + describe(gap95));
}

}  // namespace perfbench
