#include "hinch/scheduler.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace hinch {
namespace {

// Simulated costs of runtime-internal jobs (manager polls,
// reconfiguration splices). Kernel costs live with the kernels.
constexpr uint64_t kManagerPollCycles = 200;
// Creating + initializing one component of an option being enabled
// (charged at event detection, i.e. overlapped with execution — §3.4).
constexpr uint64_t kComponentCreateCycles = 4000;
// Splicing one component in/out of the quiesced subgraph.
constexpr uint64_t kSplicePerComponentCycles = 600;
constexpr uint64_t kSpliceBaseCycles = 400;

}  // namespace

Scheduler::Scheduler(Program& prog, const RunConfig& config)
    : prog_(prog), config_(config), ntasks_(prog.tasks().size()) {
  SUP_CHECK(config_.iterations >= 0);
  config_.window = std::max(1, std::min(config_.window, prog.stream_depth()));
  size_t ring = static_cast<size_t>(config_.window) * ntasks_;
  instances_ = std::vector<Instance>(ring);
  done_counts_ = std::vector<DoneCount>(static_cast<size_t>(config_.window));
  complete_ring_.assign(static_cast<size_t>(config_.window), 0);
  stat_shards_ = std::vector<StatShard>(kStatShards);
  option_active_ = std::vector<std::atomic<char>>(prog.options().size());
  for (size_t i = 0; i < option_active_.size(); ++i)
    option_active_[i].store(prog.options()[i].initially_enabled,
                            std::memory_order_relaxed);
  manager_run_ = std::vector<ManagerRun>(prog.managers().size());
  for (int c = 0; c < prog.component_count(); ++c) prog.component(c).reset();
  for (const auto& s : prog.streams()) s->reset();
}

unsigned Scheduler::stat_shard_index() {
  static std::atomic<unsigned> next{0};
  thread_local unsigned idx = next.fetch_add(1, std::memory_order_relaxed);
  return idx % kStatShards;
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats s;
  for (const StatShard& shard : stat_shards_) {
    s.jobs_executed += shard.executed.load(std::memory_order_relaxed);
    s.jobs_skipped += shard.skipped.load(std::memory_order_relaxed);
  }
  s.reconfigurations =
      stats_.reconfigurations.load(std::memory_order_relaxed);
  s.events_handled = stats_.events_handled.load(std::memory_order_relaxed);
  s.components_created =
      stats_.components_created.load(std::memory_order_relaxed);
  return s;
}

bool Scheduler::task_skipped(const Task& t) const {
  for (int opt : t.options)
    if (!option_active_[static_cast<size_t>(opt)].load(
            std::memory_order_relaxed))
      return true;
  return false;
}

std::vector<JobRef> Scheduler::start() {
  std::vector<JobRef> ready;
  std::lock_guard<std::recursive_mutex> lock(admit_mutex_);
  int64_t first_batch = std::min<int64_t>(config_.window, config_.iterations);
  for (int64_t k = 0; k < first_batch && k == admitted_; ++k)
    admit_iteration(k, &ready);
  return ready;
}

void Scheduler::admit_iteration(int64_t iter, std::vector<JobRef>* ready) {
  SUP_CHECK(iter == admitted_);
  ++admitted_;
  done_counts_[static_cast<size_t>(iter % config_.window)].count.store(
      0, std::memory_order_relaxed);
  // Pass 1: initialize every instance with its unmet-dependency count
  // before any rendezvous token is published. A racing finish(·, iter-1)
  // that wins a rendezvous below may fire a source task and — for
  // skipped tasks — cascade finish() inline through arbitrary successors
  // of this iteration; publishing any token before the whole iteration
  // is initialized would let that cascade reach a stale ring slot
  // (remaining == 0, state == kDone from iteration iter - window).
  const bool self_edges = iter > 0 && config_.window > 1;
  for (const Task& t : prog_.tasks()) {
    Instance& in = inst(t.id, iter);
    in.state.store(kWaiting, std::memory_order_relaxed);
    int remaining = static_cast<int>(t.preds.size());
    // Self-dependency: a component is sequential with itself across
    // iterations. With window == 1 the previous iteration is fully
    // complete by construction — admission happens when iteration
    // iter-window finishes — and its slot aliases this one, so no
    // self edge is recorded.
    in.remaining.store(self_edges ? remaining + 1 : remaining,
                       std::memory_order_relaxed);
  }
  // Pass 2: publish the rendezvous tokens. The previous instance's slot
  // is still live (distinct ring slot) and its finish may be racing with
  // this admission — exchange on the cell so exactly one side releases
  // the self edge. The acq_rel exchange also release-publishes all the
  // pass-1 stores to any finisher that reads our token.
  if (self_edges) {
    for (const Task& t : prog_.tasks()) {
      int64_t prev = self_cell(t.id, iter).exchange(
          admit_token(iter), std::memory_order_acq_rel);
      if (prev == finish_token(iter)) {
        // The previous iteration already finished (and, having lost the
        // rendezvous, left the release to us).
        Instance& in = inst(t.id, iter);
        int left =
            in.remaining.fetch_sub(1, std::memory_order_acq_rel) - 1;
        SUP_CHECK(left >= 0);
      }
    }
  }
  // Fire everything that is already unblocked. Concurrent finishers of
  // iter-1 may be releasing edges right now; fire()'s CAS keeps the
  // decision unique.
  for (const Task& t : prog_.tasks()) {
    Instance& in = inst(t.id, iter);
    if (in.state.load(std::memory_order_relaxed) == kWaiting &&
        in.remaining.load(std::memory_order_acquire) == 0) {
      fire(t.id, iter, ready);
    }
  }
}

void Scheduler::fire(int task, int64_t iter, std::vector<JobRef>* ready) {
  Instance& in = inst(task, iter);
  // Claim the instance: the admission scan and a racing dependency
  // release may both observe remaining == 0; only the CAS winner fires.
  uint8_t expected = kWaiting;
  if (!in.state.compare_exchange_strong(expected, kReady,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
    return;
  }
  SUP_CHECK(in.remaining.load(std::memory_order_relaxed) == 0);
  const Task& t = prog_.task(task);
  if (task_skipped(t)) {
    stat_shards_[stat_shard_index()].skipped.fetch_add(
        1, std::memory_order_relaxed);
    finish(task, iter, ready);
    return;
  }
  ready->push_back(JobRef{task, iter, 0});
}

void Scheduler::finish(int task, int64_t iter, std::vector<JobRef>* ready) {
  Instance& in = inst(task, iter);
  // Only the fire() CAS winner reaches finish(), so a plain store is
  // enough; the ordering successors rely on flows through the
  // remaining/done-count fetch-ops below.
  SUP_DCHECK(in.state.load(std::memory_order_relaxed) == kReady);
  in.state.store(kDone, std::memory_order_relaxed);
  const Task& t = prog_.task(task);

  // Count toward iteration completion BEFORE releasing any successor:
  // every next-iteration instance is then downstream of this increment,
  // which makes completion detections happen-before-ordered across
  // iterations (on_iteration_complete relies on that being near-ordered;
  // its ring absorbs the residual lock-acquisition races).
  bool iteration_complete =
      done_counts_[static_cast<size_t>(iter % config_.window)]
              .count.fetch_add(1, std::memory_order_acq_rel) +
          1 ==
      static_cast<int64_t>(ntasks_);

  // Manager quiesce bookkeeping: an exit completing may unblock a
  // pending reconfiguration of the next iteration's enter. The mutex is
  // released before the splice job is emitted — finish() never holds a
  // ManagerRun lock while cascading.
  if (t.kind == TaskKind::kManagerExit) {
    ManagerRun& run = manager_run_[static_cast<size_t>(t.manager)];
    bool unblock_splice;
    {
      std::lock_guard<std::mutex> lock(run.mutex);
      run.last_exit_done = iter;
      unblock_splice = (run.waiting_iter == iter + 1);
    }
    if (unblock_splice) {
      ready->push_back(
          JobRef{prog_.managers()[static_cast<size_t>(t.manager)].enter_task,
                 iter + 1, 1});
    }
  }

  // Successors within the iteration: the releaser that takes the count
  // to zero fires.
  for (int s : t.succs) {
    Instance& succ = inst(s, iter);
    int left = succ.remaining.fetch_sub(1, std::memory_order_acq_rel) - 1;
    SUP_CHECK(left >= 0);
    if (left == 0) fire(s, iter, ready);
  }
  // Self-dependency of the next iteration: rendezvous with its admission
  // (see admit_iteration). If that iteration will never exist, the token
  // is simply never consumed.
  if (config_.window > 1 && iter + 1 < config_.iterations) {
    int64_t prev = self_cell(task, iter + 1)
                       .exchange(finish_token(iter + 1),
                                 std::memory_order_acq_rel);
    if (prev == admit_token(iter + 1)) {
      Instance& next = inst(task, iter + 1);
      int left = next.remaining.fetch_sub(1, std::memory_order_acq_rel) - 1;
      SUP_CHECK(left >= 0);
      if (left == 0) fire(task, iter + 1, ready);
    }
  }

  if (iteration_complete) on_iteration_complete(iter, ready);
}

void Scheduler::on_iteration_complete(int64_t iter,
                                      std::vector<JobRef>* ready) {
  std::lock_guard<std::recursive_mutex> lock(admit_mutex_);
  complete_ring_[static_cast<size_t>(iter % config_.window)] = 1;
  // Iterations always complete in (happens-before) order thanks to the
  // per-task self-dependencies, but two detecting threads can reach this
  // lock inverted; advance only the contiguous prefix. Each retired
  // iteration admits at most one successor, exactly as before.
  for (;;) {
    int64_t next = iterations_done_.load(std::memory_order_relaxed);
    if (next >= admitted_ ||
        !complete_ring_[static_cast<size_t>(next % config_.window)])
      break;
    complete_ring_[static_cast<size_t>(next % config_.window)] = 0;
    iterations_done_.store(next + 1, std::memory_order_release);
    if (admitted_ < config_.iterations)
      admit_iteration(admitted_, ready);  // may re-enter (skipped cascades)
  }
}

Component* Scheduler::job_component(const JobRef& job) {
  const Task& t = prog_.task(job.task);
  return t.components.empty() ? nullptr
                              : &prog_.component(t.components.front());
}

void Scheduler::execute(const JobRef& job, ExecContext& ctx) {
  const Task& t = prog_.task(job.task);
  if (job.phase == 1) {
    // Reconfiguration splice: the subgraph is quiescent; adding the
    // pre-created components and synchronizing them is cheap (§3.4).
    ManagerRun& run = manager_run_[static_cast<size_t>(t.manager)];
    uint64_t comps = 0;
    {
      std::lock_guard<std::mutex> lock(run.mutex);
      for (const auto& [opt, on] : run.pending_flips) {
        (void)on;
        comps += prog_.options()[static_cast<size_t>(opt)].components.size();
      }
    }
    ctx.charge_compute(kSpliceBaseCycles + comps * kSplicePerComponentCycles);
    return;
  }
  switch (t.kind) {
    case TaskKind::kComponent:
      // Grouped components run back to back within the same job (same
      // core, shared charge accumulator): the §4.1 fusion behaviour.
      for (int comp : t.components) {
        ctx.rebind(&prog_.component(comp));
        prog_.component(comp).run(ctx);
      }
      break;
    case TaskKind::kManagerEnter:
    case TaskKind::kManagerExit:
      poll_manager(t.manager, ctx);
      break;
  }
}

void Scheduler::poll_manager(int mgr_idx, ExecContext& ctx) {
  const ManagerInfo& info = prog_.managers()[static_cast<size_t>(mgr_idx)];
  ManagerRun& run = manager_run_[static_cast<size_t>(mgr_idx)];
  std::lock_guard<std::mutex> lock(run.mutex);
  ctx.charge_compute(kManagerPollCycles);

  EventQueue* queue = prog_.queues().find(info.queue);
  SUP_CHECK(queue != nullptr);
  while (auto ev = queue->poll()) {
    ++run.events_handled;
    for (const sp::EventRule& rule : info.rules) {
      if (rule.event != ev->name) continue;
      switch (rule.action) {
        case sp::EventAction::kEnable:
        case sp::EventAction::kDisable:
        case sp::EventAction::kToggle: {
          // Resolve the option by its spec-level (base) name.
          for (int opt : info.options) {
            const OptionInfo& oi = prog_.options()[static_cast<size_t>(opt)];
            if (oi.base != rule.target) continue;
            bool current = option_active_[static_cast<size_t>(opt)].load(
                std::memory_order_relaxed);
            for (const auto& [p, on] : run.pending_flips)
              if (p == opt) current = on;
            bool desired = rule.action == sp::EventAction::kEnable
                               ? true
                               : rule.action == sp::EventAction::kDisable
                                     ? false
                                     : !current;
            // "The event is ignored when the option is already in the
            // required state." (§3.4)
            if (desired == current) continue;
            run.pending_flips.emplace_back(opt, desired);
            if (desired) {
              // Pre-create the option's components now, overlapping with
              // execution, so the quiesced window stays short (§3.4).
              uint64_t n = oi.components.size();
              run.components_created += n;
              ctx.charge_compute(n * kComponentCreateCycles);
            }
          }
          break;
        }
        case sp::EventAction::kForward:
          prog_.queues().get_or_create(rule.target).push(*ev);
          break;
        case sp::EventAction::kReconfigure: {
          const std::string& req =
              rule.payload.empty() ? ev->payload : rule.payload;
          for (int c : info.components) prog_.component(c).reconfigure(req);
          break;
        }
      }
    }
  }
}

std::vector<JobRef> Scheduler::complete(const JobRef& job) {
  std::vector<JobRef> ready;
  const Task& t = prog_.task(job.task);
  stat_shards_[stat_shard_index()].executed.fetch_add(
      1, std::memory_order_relaxed);

  if (job.phase == 1) {
    // Apply the configuration flip between iterations. The flips are
    // published under the manager lock; the lock is dropped before the
    // finish() cascade so no ManagerRun mutex is held while firing.
    ManagerRun& run = manager_run_[static_cast<size_t>(t.manager)];
    {
      std::lock_guard<std::mutex> lock(run.mutex);
      for (const auto& [opt, on] : run.pending_flips)
        option_active_[static_cast<size_t>(opt)].store(
            on, std::memory_order_relaxed);
      run.pending_flips.clear();
      run.waiting_iter = -1;
      stats_.reconfigurations.fetch_add(1, std::memory_order_relaxed);
      stats_.events_handled.fetch_add(run.events_handled,
                                      std::memory_order_relaxed);
      run.events_handled = 0;
      stats_.components_created.fetch_add(run.components_created,
                                          std::memory_order_relaxed);
      run.components_created = 0;
    }
    finish(job.task, job.iter, &ready);
    return ready;
  }

  if (t.kind == TaskKind::kManagerEnter) {
    ManagerRun& run = manager_run_[static_cast<size_t>(t.manager)];
    bool hold_for_splice = false;
    {
      std::lock_guard<std::mutex> lock(run.mutex);
      if (!run.pending_flips.empty()) {
        // Quiesce: the subgraph may still be executing earlier
        // iterations; splice only once the previous iteration has fully
        // exited. finish(exit) updates last_exit_done under this same
        // mutex, so exactly one side emits the splice job.
        hold_for_splice = true;
        if (job.iter == 0 || run.last_exit_done >= job.iter - 1) {
          ready.push_back(JobRef{job.task, job.iter, 1});
        } else {
          run.waiting_iter = job.iter;
        }
      } else {
        stats_.events_handled.fetch_add(run.events_handled,
                                        std::memory_order_relaxed);
        run.events_handled = 0;
      }
    }
    if (hold_for_splice) return ready;
  }

  finish(job.task, job.iter, &ready);
  return ready;
}

}  // namespace hinch
