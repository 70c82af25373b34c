// Umbrella header for the Hinch run-time system, plus the unified
// metrics collection over executor results. Typical embedding:
//
//   sp::NodePtr graph = ...;                     // or xspcl::load_file()
//   auto prog = hinch::Program::build(*graph, hinch::ComponentRegistry::global());
//   hinch::RunConfig run{.iterations = 96, .window = 5};
//   hinch::SimResult r = hinch::run_on_sim(*prog.value(), run, {.cores = 4});
#pragma once

#include "hinch/component.hpp"
#include "hinch/event.hpp"
#include "hinch/program.hpp"
#include "hinch/registry.hpp"
#include "hinch/scheduler.hpp"
#include "hinch/sim_executor.hpp"
#include "hinch/stream.hpp"
#include "hinch/thread_executor.hpp"

namespace obs {
class MetricsRegistry;
}

namespace hinch {

// Unified metrics collection: flatten an executor result into `out`
// under dotted names — "sched.*" (scheduler counters), "sim.*" /
// "threads.*" (executor-level), "mem.*" (cache model), "region.<label>.*"
// (per-region memory stats), "task.<label>.*" (per-task profile, sim
// only). One dump surface replaces the ad-hoc per-struct printing; see
// docs/OBSERVABILITY.md. `prog` supplies task labels; it must be the
// program that produced the result.
void collect_metrics(const Program& prog, const SimResult& result,
                     obs::MetricsRegistry* out);
void collect_metrics(const Program& prog, const ThreadResult& result,
                     obs::MetricsRegistry* out);

}  // namespace hinch
