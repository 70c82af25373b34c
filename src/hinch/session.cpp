#include "hinch/session.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hinch {

const char* session_status_name(SessionStatus s) {
  switch (s) {
    case SessionStatus::kQueued:
      return "queued";
    case SessionStatus::kRunning:
      return "running";
    case SessionStatus::kDone:
      return "done";
    case SessionStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

SessionStatus Session::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

SessionResult Session::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return status_ == SessionStatus::kDone ||
           status_ == SessionStatus::kCancelled;
  });
  return result_;
}

// One per worker, cache-line padded so the counters of neighbouring
// workers do not false-share. They are owner-written relaxed atomics:
// only the owning worker increments them, but pool_stats() may read
// them while jobs are in flight.
struct alignas(64) SessionExecutor::Worker {
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> steals{0};
  std::atomic<uint64_t> parks{0};
};

SessionExecutor::SessionExecutor(const Config& config) {
  SUP_CHECK(config.workers >= 1 && config.workers <= kMaxWorkers);
  active_cap_ = std::max(0, config.max_active_sessions);
  slots_.reserve(static_cast<size_t>(config.workers));
  for (int w = 0; w < config.workers; ++w)
    slots_.push_back(std::make_unique<Worker>());
  pool_.reserve(static_cast<size_t>(config.workers));
  for (int w = 0; w < config.workers; ++w)
    pool_.emplace_back([this, w] { worker_loop(w); });
}

SessionExecutor::~SessionExecutor() { shutdown(); }

SessionPtr SessionExecutor::submit(std::unique_ptr<Program> prog,
                                   const SessionConfig& cfg) {
  SUP_CHECK_MSG(prog != nullptr, "submit: null program");
  SessionPtr s(new Session());
  s->prog_ = prog.get();
  s->owned_prog_ = std::move(prog);
  return admit(std::move(s), cfg);
}

SessionPtr SessionExecutor::submit(Program& prog, const SessionConfig& cfg) {
  SessionPtr s(new Session());
  s->prog_ = &prog;
  return admit(std::move(s), cfg);
}

SessionPtr SessionExecutor::admit(SessionPtr s, const SessionConfig& cfg) {
  s->config_ = cfg;
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    SUP_CHECK_MSG(accepting_, "submit on a shut-down SessionExecutor");
    s->id_ = next_id_++;
    if (cfg.metrics != nullptr) {
      s->metrics_ = cfg.metrics;
    } else {
      s->owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
      s->metrics_ = s->owned_metrics_.get();
    }
    // The scheduler is built at admission: it resets the program's
    // components and streams, sizes the iteration ring, and clamps the
    // window to the stream depth (per-stream backpressure).
    s->scheduler_ = std::make_unique<Scheduler>(*s->prog_, cfg.run);
    if (active_cap_ > 0 && active_ >= active_cap_) {
      queue_.push_back(s);
      return s;
    }
    ++active_;
    peak_active_ = std::max(peak_active_, active_);
    live_.push_back(s);
  }
  start_session(s);
  return s;
}

void SessionExecutor::start_session(const SessionPtr& s) {
  s->t0_ = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(s->mu_);
    s->status_ = SessionStatus::kRunning;
  }
  obs::TraceSession* trace =
      obs::kTraceCompiledIn ? s->config_.trace : nullptr;
  if (trace != nullptr) {
    trace->begin_run(workers(), obs::ClockDomain::kWallNanos);
    s->trace_task_names_.clear();
    s->trace_task_names_.reserve(s->prog_->tasks().size());
    for (const Task& t : s->prog_->tasks()) {
      std::string label =
          t.label.empty() ? "task" + std::to_string(t.id) : t.label;
      s->trace_task_names_.push_back(trace->intern(label));
    }
    s->trace_reconfig_name_ = trace->intern("reconfiguration");
    s->trace_pending_name_ = trace->intern("pending jobs");
  }

  std::vector<JobRef> initial = s->scheduler_->start();
  s->pending_.store(static_cast<int64_t>(initial.size()),
                    std::memory_order_relaxed);
  if (initial.empty()) {
    // Zero iterations: the session is born finished.
    finalize(s);
    return;
  }
  push(s, initial.data(), initial.size(), /*released_by=*/-1);
}

void SessionExecutor::cancel(const SessionPtr& session) {
  SUP_CHECK_MSG(session != nullptr, "cancel: null session");
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    // Still queued? Pull it out and finalize below (no jobs exist).
    auto it = std::find(queue_.begin(), queue_.end(), session);
    if (it != queue_.end()) {
      queue_.erase(it);
      session->cancelled_.store(true, std::memory_order_release);
    } else {
      // Running (or already finalized): flag it; workers drop its jobs
      // and the last retired unit finalizes it.
      session->cancelled_.store(true, std::memory_order_release);
      return;
    }
  }
  finalize(session);
}

void SessionExecutor::set_active_cap(int cap) {
  std::vector<SessionPtr> to_start;
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    active_cap_ = std::max(0, cap);
    to_start = admit_queued();
  }
  for (const SessionPtr& s : to_start) start_session(s);
}

int SessionExecutor::active_cap() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return active_cap_;
}

int SessionExecutor::active_sessions() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return active_;
}

int SessionExecutor::queued_sessions() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return static_cast<int>(queue_.size());
}

int SessionExecutor::peak_active_sessions() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return peak_active_;
}

uint64_t SessionExecutor::sessions_completed() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return completed_;
}

SessionExecutor::PoolStats SessionExecutor::pool_stats() const {
  PoolStats stats;
  stats.worker_jobs.reserve(slots_.size());
  for (const auto& w : slots_) {
    uint64_t executed = w->executed.load(std::memory_order_relaxed);
    stats.jobs += executed;
    stats.steals += w->steals.load(std::memory_order_relaxed);
    stats.idle_parks += w->parks.load(std::memory_order_relaxed);
    stats.worker_jobs.push_back(executed);
  }
  return stats;
}

void SessionExecutor::shutdown() {
  std::vector<SessionPtr> queued;
  {
    std::unique_lock<std::mutex> lock(admission_mu_);
    if (!accepting_ && pool_.empty()) return;  // already shut down
    accepting_ = false;
    queued.swap(queue_);
    for (const SessionPtr& s : live_)
      s->cancelled_.store(true, std::memory_order_release);
  }
  // Queued sessions have no jobs in flight; finalize them directly.
  for (const SessionPtr& s : queued) {
    s->cancelled_.store(true, std::memory_order_release);
    finalize(s);
  }
  // Wait for every live session to drain (workers drop cancelled jobs
  // fast; in-flight components finish their current iteration step).
  {
    std::unique_lock<std::mutex> lock(admission_mu_);
    drained_cv_.wait(lock, [&] { return active_ == 0 && queue_.empty(); });
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    stop_ = true;
  }
  jobs_cv_.notify_all();
  for (std::thread& t : pool_) t.join();
  pool_.clear();
}

void SessionExecutor::push(const SessionPtr& s, const JobRef* refs, size_t n,
                           int released_by) {
  bool wake;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (size_t i = 0; i < n; ++i)
      jobs_.push_back(Job{s, refs[i], released_by});
    wake = waiting_ > 0;
  }
  // A worker counts itself in waiting_ under jobs_mu_ before it waits,
  // so a waiter this push did not see had not yet checked the queue and
  // will find these jobs: no wakeup can be lost.
  if (!wake) return;
  if (n > 1)
    jobs_cv_.notify_all();
  else
    jobs_cv_.notify_one();
}

void SessionExecutor::worker_loop(int id) {
  Worker& self = *slots_[static_cast<size_t>(id)];
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(jobs_mu_);
      while (jobs_.empty()) {
        if (stop_) return;
        ++waiting_;
        self.parks.fetch_add(1, std::memory_order_relaxed);
        jobs_cv_.wait(lock);
        --waiting_;
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    if (job.released_by >= 0 && job.released_by != id)
      self.steals.fetch_add(1, std::memory_order_relaxed);
    if (job.session->cancelled_.load(std::memory_order_acquire)) {
      // Teardown drain: drop without executing. The shared_ptr in
      // `job` still pins the Program until this scope ends.
      retire_unit(job.session);
      continue;
    }
    run_chain(id, std::move(job));
  }
}

uint64_t SessionExecutor::session_now_ns(const Session& s) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - s.t0_)
          .count());
}

void SessionExecutor::run_chain(int worker_id, Job job) {
  Worker& self = *slots_[static_cast<size_t>(worker_id)];
  Session& s = *job.session;
  Scheduler& sched = *s.scheduler_;
  obs::TraceSession* trace = obs::kTraceCompiledIn ? s.config_.trace : nullptr;
  obs::TraceRecorder* rec =
      trace != nullptr ? trace->recorder(worker_id) : nullptr;
  // Chain loop: run the job, then directly continue with its first
  // child — for the dominant one-successor case (the self-dependency
  // chain of a task across iterations) this touches neither the job
  // queue nor the pending counter: the parent's "1 pending" simply
  // transfers to the child. Extra children go to the central queue.
  for (;;) {
    if (s.cancelled_.load(std::memory_order_acquire)) break;
    uint64_t t_start = rec != nullptr ? session_now_ns(s) : 0;
    ExecContext ctx(sched.job_component(job.ref), job.ref.iter, worker_id,
                    &s.prog_->queues(), s.metrics_);
    sched.execute(job.ref, ctx);
    std::vector<JobRef> newly = sched.complete(job.ref);
    self.executed.fetch_add(1, std::memory_order_relaxed);
    s.jobs_executed_.fetch_add(1, std::memory_order_relaxed);
    if (rec != nullptr) {
      uint64_t t_end = session_now_ns(s);
      rec->span(s.trace_task_names_[static_cast<size_t>(job.ref.task)],
                obs::Category::kTask, t_start, t_end - t_start, job.ref.iter,
                job.ref.task);
      if (job.ref.phase == 1)
        rec->instant(s.trace_reconfig_name_, obs::Category::kReconfig, t_end,
                     job.ref.iter, job.ref.task);
    }
    note_frames(s);
    if (newly.empty()) break;
    if (newly.size() > 1) {
      // Count the extra children before continuing so the session's
      // pending count can never dip to zero while work still exists.
      int64_t now_pending =
          s.pending_.fetch_add(static_cast<int64_t>(newly.size()) - 1,
                               std::memory_order_relaxed) +
          static_cast<int64_t>(newly.size()) - 1;
      if (rec != nullptr)
        rec->counter(s.trace_pending_name_, obs::Category::kSched,
                     session_now_ns(s), now_pending);
      push(job.session, newly.data() + 1, newly.size() - 1, worker_id);
    }
    job.ref = newly[0];
  }
  // The chain retires (or was cancelled mid-chain): drop its pending
  // unit.
  if (rec != nullptr)
    rec->counter(s.trace_pending_name_, obs::Category::kSched,
                 session_now_ns(s),
                 s.pending_.load(std::memory_order_relaxed) - 1);
  retire_unit(job.session);
}

void SessionExecutor::retire_unit(const SessionPtr& s) {
  if (s->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
    finalize(s);
}

void SessionExecutor::finalize(const SessionPtr& s) {
  bool cancelled = s->cancelled_.load(std::memory_order_acquire);
  if (!cancelled)
    SUP_CHECK_MSG(s->scheduler_->finished(),
                  "session drained with unfinished iterations");
  SessionResult result;
  result.status =
      !cancelled || s->scheduler_->finished() ? SessionStatus::kDone
                                              : SessionStatus::kCancelled;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - s->t0_)
          .count();
  result.sched = s->scheduler_->stats();
  result.jobs = s->jobs_executed_.load(std::memory_order_relaxed);
  result.iterations_done = s->scheduler_->iterations_done();
  {
    std::lock_guard<std::mutex> lock(s->frame_mu_);
    result.frame_done_ns = s->frame_done_ns_;
  }

  // Free the admission slot and start the next queued session (if any)
  // BEFORE publishing the status: a thread returning from wait() — which
  // returns at once if it finds the status final — must observe the
  // admission counters already updated (active down, completed up).
  std::vector<SessionPtr> to_start;
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    auto it = std::find(live_.begin(), live_.end(), s);
    if (it != live_.end()) {
      live_.erase(it);
      --active_;
    }
    ++completed_;
    to_start = admit_queued();
    if (active_ == 0 && queue_.empty()) drained_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(s->mu_);
    // A queued session cancelled before start has t0_ == epoch; its
    // wall time is meaningless, zero it.
    if (s->status_ == SessionStatus::kQueued) result.wall_seconds = 0;
    s->status_ = result.status;
    s->result_ = std::move(result);
  }
  s->cv_.notify_all();
  for (const SessionPtr& next : to_start) start_session(next);
}

std::vector<SessionPtr> SessionExecutor::admit_queued() {
  // Nothing queued starts once shutdown() has stopped accepting.
  std::vector<SessionPtr> started;
  while (accepting_ && !queue_.empty() &&
         (active_cap_ == 0 || active_ < active_cap_)) {
    started.push_back(queue_.front());
    queue_.erase(queue_.begin());
    ++active_;
    peak_active_ = std::max(peak_active_, active_);
    live_.push_back(started.back());
  }
  return started;
}

void SessionExecutor::note_frames(Session& s) {
  int64_t done = s.scheduler_->iterations_done();
  if (done <= s.frames_noted_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(s.frame_mu_);
  // Re-checked under the lock: a racing chain may have noted a later
  // count, and the gauge must never step back.
  if (done <= s.frames_noted_.load(std::memory_order_relaxed)) return;
  s.frames_noted_.store(done, std::memory_order_relaxed);
  s.metrics_->set("live.iterations_done", done);
  if (!s.config_.record_frame_times) return;
  uint64_t now = session_now_ns(s);
  while (static_cast<int64_t>(s.frame_done_ns_.size()) < done)
    s.frame_done_ns_.push_back(now);
}

}  // namespace hinch
