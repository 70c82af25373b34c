#include "hinch/thread_executor.hpp"

#include "hinch/session.hpp"
#include "obs/metrics.hpp"

namespace hinch {

// One thread backend, two surfaces: run_on_threads is the degenerate
// one-session case of the SessionExecutor (session.hpp). A fresh pool is
// built per call — same thread count and job queue as a server pool —
// the borrowed program becomes session 0, metrics publish into the
// caller's registry (SessionConfig::metrics), and the pool's lifetime
// stats are the run's stats because the pool ran nothing else.
ThreadResult run_on_threads(Program& prog, const RunConfig& config,
                            int workers, obs::TraceSession* trace,
                            obs::MetricsRegistry* metrics) {
  SessionExecutor::Config pool;
  pool.workers = workers;
  SessionExecutor exec(pool);

  SessionConfig cfg;
  cfg.run = config;
  cfg.trace = trace;
  cfg.metrics = metrics;
  SessionPtr session = exec.submit(prog, cfg);
  SessionResult done = session->wait();
  SUP_CHECK_MSG(done.status == SessionStatus::kDone,
                "single-session run did not complete");
  exec.shutdown();

  ThreadResult result;
  result.wall_seconds = done.wall_seconds;
  result.sched = done.sched;
  result.jobs = done.jobs;
  SessionExecutor::PoolStats stats = exec.pool_stats();
  result.steals = stats.steals;
  result.idle_parks = stats.idle_parks;
  result.worker_jobs = std::move(stats.worker_jobs);
  return result;
}

}  // namespace hinch
