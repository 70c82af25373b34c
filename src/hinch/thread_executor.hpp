// Native execution on the paper's central job queue (§1: "automatic
// load balancing using a central job queue").
//
// Workers take ready jobs from one mutex-guarded FIFO, so any free
// worker runs the next job. A worker that finishes a job runs the job's
// first ready child itself (its inputs are still warm) and queues only
// the extra children; an idle worker waits on a condition variable.
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
  // Executor-level statistics.
  uint64_t steals = 0;      // jobs popped that another worker had queued
  uint64_t idle_parks = 0;  // waits on the empty job queue
  std::vector<uint64_t> worker_jobs;  // jobs executed per worker
};

// Runs all iterations with `workers` threads (>= 1). When `trace` is
// non-null (and tracing is compiled in), each worker records job spans,
// reconfiguration markers and a pending-jobs counter into its own lane,
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
