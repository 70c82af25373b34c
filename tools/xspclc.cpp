// xspclc — the XSPCL processing tool (the paper's "conversion tool from
// XSPCL to an executable that uses the run time system", §3).
//
//   xspclc validate <spec.xml>            check the specification builds
//   xspclc dot      <spec.xml> [-o f]     Graphviz of the source tree
//                                         (after the build check)
//   xspclc taskdot  <spec.xml> [-o f]     Graphviz of the compiled task
//                                         DAG (slices expanded, groups
//                                         fused, reentrant tasks dashed)
//   xspclc codegen  <spec.xml> [--name=N] [-o f] [--no-main]
//                                         emit C++ glue (after the build
//                                         check validate runs)
//   xspclc run      <spec.xml> [--backend=sim|threads] [--cores=N]
//                   [--iterations=N]      load and execute directly; sim
//                                         (the default) simulates one tile
//                                         of N cores sharing one L2
//                   [--trace=out.json]    write a Chrome trace-event file
//                                         (load in Perfetto / about:tracing)
//                   [--metrics]           dump the unified metrics registry
//   xspclc predict  <spec.xml> [--cores=N] [--iterations=N]
//                                         profile 1 core, predict speedup
//                                         for 1..N cores and name the
//                                         heaviest task that is sequential
//                                         with itself
//   xspclc emit-app <pip|jpip|blur|mjpeg> [key=value ...] [-o f]
//                                         dump a built-in application spec
//                                         (apps::builtin_xspcl; the keys
//                                         are hinchd open's, e.g. pips=2
//                                         reconfigurable=1)
//   xspclc passes                         list the registered SP-IR passes
//
// Spec-taking subcommands accept --passes=a,b,c to replace the default
// SP-IR pipeline (normalize, strip-dead-options) and --dump-after=
// <pass|all> to write after-<pass>.dot for the named pass(es). The
// fuse-kernels pass rewrites chains registered in
// components::standard_fusions() for --cores=N: at 1 core every safe
// chain, above 1 only chains that give up no parallel tasks, slices or
// reentrancy.
//
// --cores takes 1..hinch::SessionExecutor::kMaxWorkers (1024
// threads-backend workers), and at most sim::kMaxCores (63) for run on
// the sim backend, where it sizes the simulated tile (predict simulates
// one core and takes --cores only as the top of its analytic curve).
// --iterations takes a positive count. A bad number, a core count the
// simulated tile cannot hold or an unknown --backend is a usage error
// (exit 2).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "components/components.hpp"
#include "hinch/runtime.hpp"
#include "hinch/session.hpp"
#include "obs/chrome_export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/predict.hpp"
#include "sp/dot.hpp"
#include "sp/pass.hpp"
#include "sp/validate.hpp"
#include "support/strings.hpp"
#include "xspcl/codegen.hpp"
#include "xspcl/loader.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: xspclc <validate|dot|taskdot|codegen|run|predict|"
               "emit-app|passes> ...\n(see the header of tools/xspclc.cpp)\n");
  return 2;
}

struct Args {
  std::string command;
  std::string input;
  std::string output;
  std::string name = "app";
  std::string backend = "sim";
  int cores = 1;
  long long iterations = 32;
  bool emit_main = true;
  std::vector<std::string> catalog_params;  // emit-app key=value tokens
  bool passes_given = false;
  std::string passes;      // comma-separated, valid when passes_given
  std::string dump_after;  // pass name or "all"
  std::string trace_out;   // Chrome trace-event output path
  bool metrics = false;
};

// Strict --flag=N parsing; prints why and returns false on a bad value.
bool int_value(const char* flag, const char* text, int64_t lo, int64_t hi,
               int64_t* out) {
  auto v = support::parse_int_in(text, lo, hi);
  if (!v.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", flag, v.status().message().c_str());
    return false;
  }
  *out = v.value();
  return true;
}

bool parse_args(int argc, char** argv, Args* args) {
  if (argc < 3) return false;
  args->command = argv[1];
  args->input = argv[2];
  for (int i = 3; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
    };
    if (a == "-o" && i + 1 < argc) {
      args->output = argv[++i];
    } else if (const char* v = value("--name=")) {
      args->name = v;
    } else if (const char* v = value("--backend=")) {
      args->backend = v;
    } else if (const char* v = value("--cores=")) {
      int64_t cores = 0;
      if (!int_value("--cores", v, 1, hinch::SessionExecutor::kMaxWorkers,
                     &cores))
        return false;
      args->cores = static_cast<int>(cores);
    } else if (const char* v = value("--iterations=")) {
      int64_t iterations = 0;
      if (!int_value("--iterations", v, 1,
                     std::numeric_limits<int64_t>::max(), &iterations))
        return false;
      args->iterations = iterations;
    } else if (const char* v = value("--passes=")) {
      args->passes_given = true;
      args->passes = v;
    } else if (const char* v = value("--dump-after=")) {
      args->dump_after = v;
    } else if (const char* v = value("--trace=")) {
      args->trace_out = v;
    } else if (a == "--metrics") {
      args->metrics = true;
    } else if (a == "--no-main") {
      args->emit_main = false;
    } else if (args->command == "emit-app" && a[0] != '-') {
      args->catalog_params.push_back(a);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  if (args->backend != "sim" && args->backend != "threads") {
    std::fprintf(stderr, "unknown --backend=%s (sim | threads)\n",
                 args->backend.c_str());
    return false;
  }
  if (args->command == "run" && args->backend == "sim" &&
      args->cores > sim::kMaxCores) {
    std::fprintf(stderr,
                 "--cores: the simulated tile holds at most %d cores\n",
                 sim::kMaxCores);
    return false;
  }
  return true;
}

int write_output(const Args& args, const std::string& text) {
  if (args.output.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  std::ofstream f(args.output);
  f << text;
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", args.output.c_str());
    return 1;
  }
  return 0;
}

int fail(const support::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return 1;
}

int list_passes() {
  std::printf("%-20s %-8s %s\n", "pass", "default", "description");
  for (const sp::PassInfo& p : sp::registered_passes())
    std::printf("%-20s %-8s %s\n", p.name.c_str(),
                p.default_on ? "on" : "off", p.description.c_str());
  return 0;
}

// Comma-separated pass list -> names ("" -> none).
std::vector<std::string> split_passes(const std::string& text) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    if (comma > start) out.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "passes") == 0) return list_passes();
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();

  if (args.command == "emit-app") {
    auto params = apps::parse_catalog_params(args.catalog_params);
    if (!params.is_ok()) {
      std::fprintf(stderr, "%s\n", params.status().message().c_str());
      return 2;
    }
    auto text = apps::builtin_xspcl(args.input, params.value());
    if (!text.is_ok()) {
      std::fprintf(stderr, "%s\n", text.status().message().c_str());
      return 2;
    }
    return write_output(args, text.value());
  }

  auto graph = xspcl::load_file(args.input);
  if (!graph.is_ok()) return fail(graph.status());
  sp::NodePtr owned = std::move(graph).take();

  components::register_standard_globally();

  // Assemble and run the SP-IR pipeline here (so --dump-after can
  // observe every stage); Program::build below gets PassOptions::none()
  // to avoid running it twice.
  sp::PassManager pipeline;
  if (!args.passes_given) {
    pipeline = sp::make_pipeline(sp::PassOptions{});
  } else {
    sp::PassOptions options = sp::PassOptions::none();
    options.kernel_patterns = &components::standard_fusions();
    options.kernel_cores = args.cores;
    for (const std::string& name : split_passes(args.passes)) {
      auto pass = sp::pass_by_name(name, options);
      if (!pass.is_ok()) return fail(pass.status());
      pipeline.add(std::move(pass).value());
    }
  }
  if (!args.dump_after.empty()) {
    if (args.dump_after != "all") {
      bool known = false;
      for (const sp::PassInfo& p : sp::registered_passes())
        if (p.name == args.dump_after) known = true;
      if (!known)
        return fail(support::not_found("--dump-after: no pass named '" +
                                       args.dump_after + "'"));
    }
    pipeline.set_dump_hook([&args](const std::string& pass,
                                   const sp::Node& g) {
      if (args.dump_after != "all" && args.dump_after != pass) return;
      std::string path = "after-" + pass + ".dot";
      std::ofstream f(path);
      f << sp::to_dot(g, args.name + ":" + pass);
      if (!f)
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
      else
        std::fprintf(stderr, "wrote %s\n", path.c_str());
    });
  }
  auto transformed = pipeline.run(std::move(owned));
  if (!transformed.is_ok()) return fail(transformed.status());
  owned = std::move(transformed).take();
  const sp::Node& root = *owned;

  // Every subcommand checks the spec the way run builds it: a build-time
  // error (an unknown class, a misspelt param, an unbound port, an
  // unsafe reentrant opt-in) is reported here, not at the first run, in
  // the generated program or never (dot).
  hinch::BuildConfig build_config;
  build_config.passes = sp::PassOptions::none();  // pipeline already ran
  auto prog = hinch::Program::build(root, hinch::ComponentRegistry::global(),
                                    build_config);
  if (!prog.is_ok()) return fail(prog.status());
  if (args.command == "dot") {
    // The source-level tree, not the compiled tasks (that is taskdot).
    return write_output(args, sp::to_dot(root, args.name));
  }
  if (args.command == "codegen") {
    xspcl::CodegenOptions options;
    options.app_name = args.name;
    options.emit_main = args.emit_main;
    options.default_iterations = args.iterations;
    return write_output(args, xspcl::generate_cpp(root, options));
  }
  if (args.command == "validate") {
    sp::GraphStats stats = sp::stats(root);
    std::printf(
        "OK: %d components (%d after data-parallel expansion), %d parallel "
        "regions, %d options, %d managers, %s form\n",
        stats.leaves, stats.expanded_leaves, stats.par_nodes, stats.options,
        stats.managers, sp::is_sp_form(root) ? "SP" : "non-SP (crossdep)");
    return 0;
  }
  hinch::RunConfig run;
  run.iterations = args.iterations;

  if (args.command == "taskdot") {
    return write_output(args, prog.value()->task_graph_dot(args.name));
  }
  if (args.command == "run") {
    std::unique_ptr<obs::TraceSession> trace;
    if (!args.trace_out.empty()) {
      if (!obs::kTraceCompiledIn)
        std::fprintf(stderr,
                     "warning: built with HINCH_TRACING=OFF; the trace "
                     "will contain no events\n");
      trace = std::make_unique<obs::TraceSession>();
    }
    // The registry doubles as the run's live-poll surface: executors
    // publish "live.*" gauges into it mid-run, which lets policy
    // components in the spec adapt (docs/OBSERVABILITY.md). The final
    // gauge values stay in the --metrics dump alongside the collected
    // result metrics.
    obs::MetricsRegistry metrics;
    if (args.backend == "threads") {
      hinch::ThreadResult r = hinch::run_on_threads(
          *prog.value(), run, args.cores, trace.get(), &metrics);
      std::printf("backend=threads workers=%d iterations=%lld "
                  "wall_seconds=%.6f jobs=%llu\n",
                  args.cores, args.iterations, r.wall_seconds,
                  static_cast<unsigned long long>(r.jobs));
      if (args.metrics) hinch::collect_metrics(*prog.value(), r, &metrics);
    } else {
      hinch::SimParams sim;
      sim.cores = args.cores;
      sim.trace = trace.get();
      sim.metrics = &metrics;
      hinch::SimResult r = hinch::run_on_sim(*prog.value(), run, sim);
      std::printf(
          "backend=sim cores=%d iterations=%lld cycles=%llu jobs=%llu "
          "l1_hit_rate=%.3f reconfigs=%llu\n",
          args.cores, args.iterations,
          static_cast<unsigned long long>(r.total_cycles),
          static_cast<unsigned long long>(r.jobs), r.mem.l1_hit_rate(),
          static_cast<unsigned long long>(r.sched.reconfigurations));
      if (args.metrics) hinch::collect_metrics(*prog.value(), r, &metrics);
    }
    if (args.metrics) std::fputs(metrics.snapshot().to_text().c_str(), stdout);
    if (trace != nullptr &&
        !obs::write_chrome_trace(*trace, args.trace_out))
      return 1;
    return 0;
  }
  if (args.command == "predict") {
    // Profile one iteration window on a single simulated core, then
    // evaluate the SPC model for 1..cores processors.
    hinch::SimParams sim;
    sim.cores = 1;
    hinch::RunConfig profile_run = run;
    profile_run.iterations = std::min<long long>(args.iterations, 8);
    hinch::SimResult profile =
        hinch::run_on_sim(*prog.value(), profile_run, sim);
    std::vector<double> cost(profile.task_cycles.size(), 0);
    for (size_t i = 0; i < cost.size(); ++i) {
      if (profile.task_runs[i])
        cost[i] = static_cast<double>(profile.task_cycles[i]) /
                  static_cast<double>(profile.task_runs[i]);
    }
    std::printf("processors predicted_cycles predicted_speedup\n");
    perf::Prediction base =
        perf::predict_from_profile(*prog.value(), cost, 1);
    for (int p = 1; p <= args.cores; ++p) {
      perf::Prediction pred =
          perf::predict_from_profile(*prog.value(), cost, p);
      std::printf("%10d %16.0f %17.2f\n", p, pred.total(args.iterations),
                  base.total(args.iterations) / pred.total(args.iterations));
    }
    // The pipelined interval's per-task term: the task that, sequential
    // with itself, bounds throughput however many cores there are.
    if (base.bound_task >= 0) {
      std::printf("heaviest_sequential_task=%s cycles=%.0f\n",
                  prog.value()->task(base.bound_task).label.c_str(),
                  cost[static_cast<size_t>(base.bound_task)]);
    }
    return 0;
  }
  return usage();
}
