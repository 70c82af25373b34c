// Native execution with per-worker work-stealing deques.
//
// Each worker owns a deque: new jobs are pushed and popped LIFO at the
// owner's end (locality — a job's successors run where their inputs are
// warm), idle workers steal FIFO from the opposite end of randomly
// ordered victims. The paper's load-balancing contract (§1: "automatic
// load balancing using a central job queue") is preserved observably:
// any free worker ends up running any ready job.
//
// Used by `xspclc run --backend=threads` and the correctness tests; the
// simulator backend is what reproduces the paper's cycle counts.
#pragma once

#include <cstdint>
#include <vector>

#include "hinch/scheduler.hpp"

namespace obs {
class MetricsRegistry;
class TraceSession;
}

namespace hinch {

struct ThreadResult {
  double wall_seconds = 0;
  SchedulerStats sched;
  uint64_t jobs = 0;
  // Executor-level statistics (new with the work-stealing pool).
  uint64_t steals = 0;        // jobs obtained from another worker's deque
  uint64_t idle_parks = 0;    // running -> parked transitions
  std::vector<uint64_t> worker_jobs;  // jobs executed per worker
};

// Runs all iterations with `workers` threads (>= 1). When `trace` is
// non-null (and tracing is compiled in), each worker records job spans,
// steal/park markers and a pending-jobs counter into its own lane,
// stamped in wall-clock nanoseconds since run start (obs/trace.hpp).
// When `metrics` is non-null, the run publishes "live.iterations_done"
// into it once per retired iteration (and components their own gauges);
// the registry is internally locked, so other threads — and policy
// components inside the run — may snapshot() it concurrently while the
// run is in flight.
ThreadResult run_on_threads(Program& prog, const RunConfig& config,
                            int workers, obs::TraceSession* trace = nullptr,
                            obs::MetricsRegistry* metrics = nullptr);

}  // namespace hinch
