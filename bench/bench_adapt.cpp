// Adaptation bench (fig10-style): closes the feedback loop end to end
// and measures how the policy component reacts to a load step.
//
// The program is the adapt spec (specs/adapt_small.xml at bench scale):
// a var_load stage steps its per-iteration compute cost up and later
// back down; a policy component polls the executor's live
// "cycles_per_iter" gauge and drives a manager that disables an
// optional high-quality stage on overload and re-enables it on calm.
//
// Two runs, identical load profile:
//   hysteresis     high/low thresholds far apart — the load shed by
//                  disabling the option lands inside the band, so the
//                  option switches exactly once per load edge.
//   degenerate     high == low — disabling the option drops the metric
//                  straight back below the threshold, so the policy
//                  oscillates (bounded only by its hold parameter).
//
// Reported (simulated cycles, deterministic):
//   reaction   load-step onset (start of the var_load span at step_at)
//              to the first reconfiguration splice marker after it —
//              the reconfiguration latency of the whole loop: metric
//              publication -> policy poll -> manager event -> quiesce
//              -> splice (the PR's §3.4 path, traced via the
//              Category::kReconfig instants).
//   oscillation reconfiguration count inside the step window for each
//              leg; the hysteresis leg must switch exactly twice
//              (disable at the step, enable at the restore), the
//              degenerate leg strictly more often.
//
// Usage: bench_adapt [--smoke] [output.json]  (default ./BENCH_adapt.json)
//   --smoke            shrink the run for CI (same checks)
// Always writes the hysteresis leg's Chrome trace to
// ./bench_adapt_trace.json. The reaction is read from that trace, so a
// build with HINCH_TRACING=OFF exits 2 without running.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/chrome_export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace {

bool g_smoke = false;

struct AdaptScale {
  int64_t iterations = 400;
  int64_t step_at = 100;
  int64_t restore_at = 300;
  int64_t warmup = 16;
  int64_t hold = 4;
};

// Load design (simulated cycles/iteration, cores=1): base 2000 +
// optional hq stage 3000 + policy/manager overhead ~2500; the step adds
// 10000. With hq on the stepped load sits ~15.5k, with hq shed ~12.5k.
// The hysteresis leg's band (13500 / 9000) brackets the shed load, the
// degenerate leg's single threshold (13500) sits above it.
std::string adapt_spec(const AdaptScale& s, bool hysteresis) {
  int64_t high = 13500;
  int64_t low = hysteresis ? 9000 : high;
  std::string spec;
  spec += "<xspcl><procedure name=\"main\"><body>";
  spec += "<component name=\"load\" class=\"var_load\">";
  spec += "<param name=\"cycles\" value=\"2000\"/>";
  spec += "<param name=\"step_at\" value=\"" + std::to_string(s.step_at) +
          "\"/>";
  spec += "<param name=\"step_cycles\" value=\"12000\"/>";
  spec += "<param name=\"restore_at\" value=\"" +
          std::to_string(s.restore_at) + "\"/>";
  spec += "</component>";
  spec += "<component name=\"watchdog\" class=\"policy\">";
  spec += "<param name=\"queue\" value=\"ctl\"/>";
  spec += "<param name=\"rules\" value=\"live.cycles_per_iter:" +
          std::to_string(high) + ":" + std::to_string(low) +
          ":overload:calm\"/>";
  spec += "<param name=\"hold\" value=\"" + std::to_string(s.hold) + "\"/>";
  spec += "<param name=\"warmup\" value=\"" + std::to_string(s.warmup) +
          "\"/>";
  spec += "</component>";
  spec += "<manager name=\"mgr\" queue=\"ctl\">";
  spec += "<on event=\"overload\" action=\"disable\" option=\"hq\"/>";
  spec += "<on event=\"calm\" action=\"enable\" option=\"hq\"/>";
  spec += "<body><option name=\"hq\" enabled=\"true\">";
  spec += "<component name=\"hq_stage\" class=\"var_load\">";
  spec += "<param name=\"cycles\" value=\"3000\"/>";
  spec += "</component></option></body></manager>";
  spec += "</body></procedure></xspcl>";
  return spec;
}

struct AdaptRun {
  hinch::SimResult result;
  uint64_t step_ts = 0;             // start of the load span at step_at
  uint64_t restore_ts = 0;          // start of the load span at restore_at
  std::vector<uint64_t> reconfig_ts;  // all splice markers, sorted
  std::vector<int64_t> reconfig_iter;
};

// Run one leg with a live metrics registry and a trace session attached,
// then scan the trace in-process for the load-step span boundaries and
// the reconfiguration splice markers (Category::kReconfig instants).
AdaptRun run_leg(const AdaptScale& s, bool hysteresis,
                 obs::TraceSession* session) {
  auto prog = bench::build_program(adapt_spec(s, hysteresis));
  obs::MetricsRegistry live;
  hinch::RunConfig run;
  run.iterations = s.iterations;
  hinch::SimParams sim;
  sim.cores = 1;
  sim.trace = session;
  sim.metrics = &live;
  AdaptRun out;
  out.result = hinch::run_on_sim(*prog, run, sim);

  std::vector<std::string> names = session->names();
  uint16_t load_name = 0;
  bool have_load = false;
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "load") {
      load_name = static_cast<uint16_t>(i);
      have_load = true;
    }
  }
  SUP_CHECK_MSG(have_load, "trace has no span name for the load task");
  for (int lane = 0; lane < session->lanes(); ++lane) {
    for (const obs::TraceEvent& ev : session->recorder(lane)->collect()) {
      if (ev.kind == obs::EventKind::kSpan && ev.name == load_name) {
        if (ev.value == s.step_at) out.step_ts = ev.ts;
        if (ev.value == s.restore_at) out.restore_ts = ev.ts;
      } else if (ev.kind == obs::EventKind::kInstant &&
                 ev.cat == obs::Category::kReconfig) {
        out.reconfig_ts.push_back(ev.ts);
        out.reconfig_iter.push_back(ev.value);
      }
    }
  }
  SUP_CHECK_MSG(out.step_ts > 0 && out.restore_ts > out.step_ts,
                "load-step spans missing from the trace (ring overflow?)");
  return out;
}

size_t count_in_window(const AdaptRun& r) {
  size_t n = 0;
  for (uint64_t ts : r.reconfig_ts)
    if (ts >= r.step_ts && ts < r.restore_ts) ++n;
  return n;
}

void write_json(const std::string& path, const AdaptScale& s,
                const AdaptRun& hyst, const AdaptRun& osc,
                uint64_t reaction_cycles, int64_t reaction_iters) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open output json '%s'\n",
                 path.c_str());
    std::abort();
  }
  auto u64 = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  std::fprintf(f, "{\n  \"bench\": \"bench_adapt\",\n");
  std::fprintf(f, "  \"clock\": \"simulated_cycles\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", g_smoke ? "true" : "false");
  std::fprintf(f,
               "  \"load_step\": {\"step_at\": %lld, \"restore_at\": %lld, "
               "\"iterations\": %lld},\n",
               static_cast<long long>(s.step_at),
               static_cast<long long>(s.restore_at),
               static_cast<long long>(s.iterations));
  std::fprintf(f,
               "  \"reaction\": {\"step_ts\": %llu, "
               "\"first_reconfig_ts\": %llu, \"reaction_cycles\": %llu, "
               "\"reaction_iterations\": %lld},\n",
               u64(hyst.step_ts), u64(hyst.step_ts + reaction_cycles),
               u64(reaction_cycles), static_cast<long long>(reaction_iters));
  std::fprintf(f,
               "  \"oscillation\": {\"hold\": %lld, "
               "\"hysteresis_reconfigs_in_step\": %llu, "
               "\"degenerate_reconfigs_in_step\": %llu, "
               "\"hysteresis_reconfigs_total\": %llu, "
               "\"degenerate_reconfigs_total\": %llu},\n",
               static_cast<long long>(s.hold), u64(count_in_window(hyst)),
               u64(count_in_window(osc)), u64(hyst.reconfig_ts.size()),
               u64(osc.reconfig_ts.size()));
  std::fprintf(f,
               "  \"totals\": {\"cycles\": %llu, \"jobs\": %llu, "
               "\"reconfigurations\": %llu}\n}\n",
               u64(hyst.result.total_cycles), u64(hyst.result.jobs),
               u64(hyst.result.sched.reconfigurations));
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_adapt.json";
  const std::string trace_path = "bench_adapt_trace.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      g_smoke = true;
    else
      out = argv[i];
  }
  if (!obs::kTraceCompiledIn) {
    std::fprintf(stderr,
                 "bench_adapt: the reaction is read from the run's trace, "
                 "which needs a build with HINCH_TRACING=ON\n");
    return 2;
  }

  AdaptScale s;
  if (g_smoke) {
    s.iterations = 160;
    s.step_at = 40;
    s.restore_at = 120;
    std::printf("(smoke mode: reduced run, same checks)\n");
  }

  obs::TraceSession hyst_session;
  AdaptRun hyst = run_leg(s, /*hysteresis=*/true, &hyst_session);
  obs::TraceSession osc_session;
  AdaptRun osc = run_leg(s, /*hysteresis=*/false, &osc_session);

  // Reaction: load-step onset to the first splice after it.
  uint64_t first_after = 0;
  int64_t first_iter = -1;
  for (size_t i = 0; i < hyst.reconfig_ts.size(); ++i) {
    if (hyst.reconfig_ts[i] >= hyst.step_ts) {
      first_after = hyst.reconfig_ts[i];
      first_iter = hyst.reconfig_iter[i];
      break;
    }
  }
  SUP_CHECK_MSG(first_after != 0,
                "policy never reacted to the load step (no reconfiguration "
                "marker after step_at)");
  uint64_t reaction_cycles = first_after - hyst.step_ts;
  int64_t reaction_iters = first_iter - s.step_at;

  std::printf("reaction: step at iter %lld (ts %llu) -> splice at iter %lld "
              "(ts %llu): %llu cycles, %lld iterations\n",
              static_cast<long long>(s.step_at),
              static_cast<unsigned long long>(hyst.step_ts),
              static_cast<long long>(first_iter),
              static_cast<unsigned long long>(first_after),
              static_cast<unsigned long long>(reaction_cycles),
              static_cast<long long>(reaction_iters));
  std::printf("oscillation: hysteresis %zu reconfigs in step window "
              "(%zu total), degenerate %zu (%zu total)\n",
              count_in_window(hyst), hyst.reconfig_ts.size(),
              count_in_window(osc), osc.reconfig_ts.size());

  // Acceptance: the hysteresis leg switches once per load edge (disable
  // at the step + enable at the restore, nothing else); the degenerate
  // band oscillates strictly more.
  bool failed = false;
  if (hyst.reconfig_ts.size() != 2) {
    std::printf("FAIL: hysteresis leg made %zu reconfigurations, want 2\n",
                hyst.reconfig_ts.size());
    failed = true;
  }
  if (osc.reconfig_ts.size() <= hyst.reconfig_ts.size()) {
    std::printf("FAIL: degenerate band did not oscillate (%zu <= %zu)\n",
                osc.reconfig_ts.size(), hyst.reconfig_ts.size());
    failed = true;
  }

  write_json(out, s, hyst, osc, reaction_cycles, reaction_iters);
  if (!obs::write_chrome_trace(hyst_session, trace_path)) return 1;
  std::printf("trace: wrote %s\n", trace_path.c_str());
  bench::teardown();
  if (failed) return 1;
  std::printf("OK\n");
  return 0;
}
