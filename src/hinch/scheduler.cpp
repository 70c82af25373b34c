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
  instances_.resize(static_cast<size_t>(config_.window) * ntasks_);
  done_counts_.assign(static_cast<size_t>(config_.window), 0);
  for (const OptionInfo& o : prog.options())
    option_active_.push_back(o.initially_enabled);
  manager_run_.resize(prog.managers().size());
  for (int c = 0; c < prog.component_count(); ++c) prog.component(c).reset();
  for (const auto& s : prog.streams()) s->reset();
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool Scheduler::task_skipped(const Task& t) const {
  for (int opt : t.options)
    if (!option_active_[static_cast<size_t>(opt)]) return true;
  return false;
}

std::vector<JobRef> Scheduler::start() {
  std::vector<JobRef> ready;
  std::lock_guard<std::mutex> lock(mu_);
  int64_t first_batch = std::min<int64_t>(config_.window, config_.iterations);
  for (int64_t k = 0; k < first_batch && k == admitted_; ++k)
    admit_iteration(k, &ready);
  return ready;
}

void Scheduler::admit_iteration(int64_t iter, std::vector<JobRef>* ready) {
  SUP_CHECK(iter == admitted_);
  ++admitted_;
  done_counts_[static_cast<size_t>(iter % config_.window)] = 0;
  for (const Task& t : prog_.tasks()) {
    Instance& in = inst(t.id, iter);
    in.state = kWaiting;
    in.remaining = static_cast<int>(t.preds.size());
    // Self-dependency: a component is sequential with itself across
    // iterations, so wait for the previous instance unless it is done.
    // With window == 1 the previous iteration is fully complete by
    // construction — admission happens when iteration iter-window
    // finishes — and its slot aliases this one, so no self edge exists.
    if (iter > 0 && config_.window > 1 && inst(t.id, iter - 1).state != kDone)
      ++in.remaining;
  }
  // Fire in task order; a skipped task's cascade may already have fired
  // a later one.
  for (const Task& t : prog_.tasks()) {
    const Instance& in = inst(t.id, iter);
    if (in.state == kWaiting && in.remaining == 0) fire(t.id, iter, ready);
  }
}

void Scheduler::release(int task, int64_t iter, std::vector<JobRef>* ready) {
  Instance& in = inst(task, iter);
  SUP_CHECK(in.remaining > 0);
  if (--in.remaining == 0) fire(task, iter, ready);
}

void Scheduler::fire(int task, int64_t iter, std::vector<JobRef>* ready) {
  Instance& in = inst(task, iter);
  SUP_CHECK(in.state == kWaiting && in.remaining == 0);
  in.state = kReady;
  if (task_skipped(prog_.task(task))) {
    ++stats_.jobs_skipped;
    finish(task, iter, ready);
    return;
  }
  ready->push_back(JobRef{task, iter, 0});
}

void Scheduler::finish(int task, int64_t iter, std::vector<JobRef>* ready) {
  Instance& in = inst(task, iter);
  SUP_DCHECK(in.state == kReady);
  const Task& t = prog_.task(task);
  bool iteration_complete =
      ++done_counts_[static_cast<size_t>(iter % config_.window)] ==
      static_cast<int>(ntasks_);

  // Manager quiesce bookkeeping: an exit completing may unblock a
  // pending reconfiguration of the next iteration's enter.
  if (t.kind == TaskKind::kManagerExit) {
    ManagerRun& run = manager_run_[static_cast<size_t>(t.manager)];
    run.last_exit_done = iter;
    if (run.waiting_iter == iter + 1) {
      ready->push_back(
          JobRef{prog_.managers()[static_cast<size_t>(t.manager)].enter_task,
                 iter + 1, 1});
    }
  }

  for (int s : t.succs) release(s, iter, ready);
  // Self-dependency of the next iteration: an admission of iter+1 records
  // the edge iff it runs before kDone is set, so setting it here, after
  // the successor cascade, keeps that decision and this release in step.
  in.state = kDone;
  if (config_.window > 1 && iter + 1 < admitted_)
    release(task, iter + 1, ready);

  if (iteration_complete) on_iteration_complete(iter, ready);
}

void Scheduler::on_iteration_complete(int64_t iter,
                                      std::vector<JobRef>* ready) {
  // Every task of iter+1 finishes after the same task of iter (self
  // edges), so iterations complete in order.
  SUP_CHECK(iter == iterations_done_.load(std::memory_order_relaxed));
  iterations_done_.store(iter + 1, std::memory_order_release);
  if (admitted_ < config_.iterations)
    admit_iteration(admitted_, ready);  // may complete it inline (skips)
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
    uint64_t comps = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [opt, on] :
           manager_run_[static_cast<size_t>(t.manager)].pending_flips) {
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
    case TaskKind::kManagerExit: {
      std::lock_guard<std::mutex> lock(mu_);
      poll_manager(t.manager, ctx);
      break;
    }
  }
}

void Scheduler::poll_manager(int mgr_idx, ExecContext& ctx) {
  const ManagerInfo& info = prog_.managers()[static_cast<size_t>(mgr_idx)];
  ManagerRun& run = manager_run_[static_cast<size_t>(mgr_idx)];
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
            bool current = option_active_[static_cast<size_t>(opt)];
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
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.jobs_executed;

  if (job.phase == 1) {
    // Apply the configuration flip between iterations.
    ManagerRun& run = manager_run_[static_cast<size_t>(t.manager)];
    for (const auto& [opt, on] : run.pending_flips)
      option_active_[static_cast<size_t>(opt)] = on;
    run.pending_flips.clear();
    run.waiting_iter = -1;
    ++stats_.reconfigurations;
    stats_.events_handled += run.events_handled;
    run.events_handled = 0;
    stats_.components_created += run.components_created;
    run.components_created = 0;
    finish(job.task, job.iter, &ready);
    return ready;
  }

  if (t.kind == TaskKind::kManagerEnter) {
    ManagerRun& run = manager_run_[static_cast<size_t>(t.manager)];
    if (!run.pending_flips.empty()) {
      // Quiesce: the subgraph may still be executing earlier iterations;
      // splice only once the previous iteration has fully exited, else
      // finish(exit) emits the splice job.
      if (job.iter == 0 || run.last_exit_done >= job.iter - 1) {
        ready.push_back(JobRef{job.task, job.iter, 1});
      } else {
        run.waiting_iter = job.iter;
      }
      return ready;
    }
    stats_.events_handled += run.events_handled;
    run.events_handled = 0;
  }

  finish(job.task, job.iter, &ready);
  return ready;
}

}  // namespace hinch
