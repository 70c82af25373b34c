#include "hinch/session.hpp"

#include <algorithm>
#include <deque>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hinch {
namespace {

// splitmix64: deterministic per-pool worker RNG for victim selection.
inline uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

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

// One per worker, cache-line padded so deque locks and counters of
// neighbouring workers do not false-share. The statistics counters are
// owner-written relaxed atomics: only the owning worker increments
// them, but pool_stats() may read them while jobs are in flight.
struct alignas(64) SessionExecutor::Worker {
  std::mutex mu;
  std::deque<Job> jobs;  // owner: push/pop back (LIFO); thief: front
  uint64_t rng = 0;
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> steals{0};
  std::atomic<uint64_t> parks{0};
};

SessionExecutor::SessionExecutor(const Config& config) {
  SUP_CHECK(config.workers >= 1);
  active_cap_ = std::max(0, config.max_active_sessions);
  slots_.reserve(static_cast<size_t>(config.workers));
  for (int w = 0; w < config.workers; ++w) {
    auto worker = std::make_unique<Worker>();
    // Deterministic per-pool seed: same worker count -> same victim
    // sequences (no wall-clock or address entropy).
    worker->rng =
        0x853C49E6748FEA9BULL ^ (static_cast<uint64_t>(w + 1) * 0x9E37ULL);
    slots_.push_back(std::move(worker));
  }
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
    s->trace_steal_name_ = trace->intern("steal");
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
  // Spread the initial wavefront round-robin so workers start busy; the
  // session id offsets the start so concurrent admissions do not all
  // land on worker 0.
  int n = workers();
  for (size_t i = 0; i < initial.size(); ++i) {
    Worker& w = *slots_[(i + static_cast<size_t>(s->id_)) %
                        static_cast<size_t>(n)];
    std::lock_guard<std::mutex> lock(w.mu);
    w.jobs.push_back(Job{s, initial[i]});
  }
  wake_sleepers(initial.size());
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
    std::lock_guard<std::mutex> lock(idle_mu_);
    stop_.store(true, std::memory_order_release);
  }
  idle_cv_.notify_all();
  for (std::thread& t : pool_) t.join();
  pool_.clear();
}

void SessionExecutor::worker_loop(int id) {
  Worker& self = *slots_[static_cast<size_t>(id)];
  Job job;
  int failed_sweeps = 0;
  for (;;) {
    if (pop_own(self, &job) || steal(id, &job)) {
      failed_sweeps = 0;
      if (job.session->cancelled_.load(std::memory_order_acquire)) {
        // Teardown drain: drop without executing. The shared_ptr in
        // `job` still pins the Program until this scope ends.
        retire_unit(job.session);
        job.session.reset();
        continue;
      }
      run_chain(id, std::move(job));
      job.session.reset();
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    // Spin through a few sweeps before parking: job supply is bursty
    // (a completion fans out a whole wavefront at once).
    if (++failed_sweeps < 4) {
      std::this_thread::yield();
      continue;
    }
    failed_sweeps = 0;
    park(self);
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
  // chain of a task across iterations) this touches neither the deque
  // nor the pending counter: the parent's "1 pending" simply transfers
  // to the child. Extra children are published for thieves.
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
      {
        std::lock_guard<std::mutex> lock(self.mu);
        for (size_t i = 1; i < newly.size(); ++i)
          self.jobs.push_back(Job{job.session, newly[i]});
      }
      wake_sleepers(newly.size() - 1);
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

bool SessionExecutor::pop_own(Worker& self, Job* out) {
  std::lock_guard<std::mutex> lock(self.mu);
  if (self.jobs.empty()) return false;
  *out = self.jobs.back();
  self.jobs.pop_back();
  return true;
}

bool SessionExecutor::steal(int id, Job* out) {
  int n = workers();
  if (n <= 1) return false;
  Worker& self = *slots_[static_cast<size_t>(id)];
  // Randomized victim order (deterministic seed): scan all other
  // workers starting at a random offset. try_lock keeps thieves from
  // convoying on a busy victim; a missed deque is retried on the next
  // sweep (draining never depends on sweep completeness — the
  // per-session pending counters govern completion).
  int start =
      static_cast<int>(splitmix64(self.rng) % static_cast<uint64_t>(n - 1));
  for (int i = 0; i < n - 1; ++i) {
    int victim = (start + i) % (n - 1);
    if (victim >= id) ++victim;  // skip self
    Worker& v = *slots_[static_cast<size_t>(victim)];
    std::unique_lock<std::mutex> lock(v.mu, std::try_to_lock);
    if (!lock.owns_lock() || v.jobs.empty()) continue;
    *out = v.jobs.front();  // FIFO end: oldest, largest-grain work
    v.jobs.pop_front();
    self.steals.fetch_add(1, std::memory_order_relaxed);
    // The steal marker lands in the *stolen job's* session trace — the
    // session is the trace namespace, the pool is anonymous. No park
    // markers: parking is pool-level and attributable to no session.
    if (obs::kTraceCompiledIn && out->session->config_.trace != nullptr &&
        !out->session->cancelled_.load(std::memory_order_acquire)) {
      Session& s = *out->session;
      s.config_.trace->recorder(id)->instant(s.trace_steal_name_,
                                             obs::Category::kSched,
                                             session_now_ns(s), victim,
                                             out->ref.task);
    }
    return true;
  }
  return false;
}

bool SessionExecutor::any_job_queued() {
  for (const auto& w : slots_) {
    std::lock_guard<std::mutex> lock(w->mu);
    if (!w->jobs.empty()) return true;
  }
  return false;
}

void SessionExecutor::park(Worker& self) {
  std::unique_lock<std::mutex> lock(idle_mu_);
  if (stop_.load(std::memory_order_relaxed)) return;
  uint64_t epoch = wake_epoch_;
  // Publish this sleeper, then re-scan every deque. A producer pushes
  // its job, fences, then reads sleepers_ (wake_sleepers): either it
  // sees this increment and bumps the epoch, or the push precedes the
  // scan below and the scan finds the job. No wakeup can be lost, so
  // the wait needs no timeout.
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  if (!any_job_queued()) {
    self.parks.fetch_add(1, std::memory_order_relaxed);
    idle_cv_.wait(lock, [&] {
      return wake_epoch_ != epoch || stop_.load(std::memory_order_relaxed);
    });
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

void SessionExecutor::wake_sleepers(size_t new_jobs) {
  // Pairs with the sleepers_ increment in park(): orders the caller's
  // job push before this load.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) == 0) return;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    ++wake_epoch_;
  }
  if (new_jobs > 1)
    idle_cv_.notify_all();
  else
    idle_cv_.notify_one();
}

}  // namespace hinch
