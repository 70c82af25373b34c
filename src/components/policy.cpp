// Adaptation components closing the feedback loop of §3.4: a policy
// component polls the executor's live metrics and drives the existing
// manager/option protocol through events, so "what to adapt on" is
// declared in the XML spec as data — thresholds, hysteresis bands and
// event names are parameters, not code. A var_load component provides
// the controllable load step the adaptation bench (bench_adapt) and the
// policy tests exercise the loop with.
#include "components/components.hpp"
#include "components/detail.hpp"
#include "hinch/component.hpp"
#include "obs/metrics.hpp"
#include "support/strings.hpp"

namespace components {
namespace {

// Watches live metrics ("live.*" gauges published by the executors, see
// docs/OBSERVABILITY.md) against per-rule thresholds and sends manager
// events when a metric crosses them. Params:
//
//   queue   event queue of the manager to drive (required)
//   rules   ';'-separated "metric:high:low:on_high:on_low" entries
//           (required): when `metric` rises to >= high, send event
//           `on_high`; when it falls back to <= low, send `on_low`.
//           high > low is the hysteresis band — a metric oscillating
//           inside (low, high) triggers nothing.
//   period  poll every `period` iterations (default 1)
//   hold    after sending an event, suppress further events of the same
//           rule for `hold` iterations (default 0) — bounds the
//           reconfiguration rate even with a degenerate band.
//   warmup  ignore all rules for the first `warmup` iterations
//           (default 0): the first cycles-per-iteration samples include
//           pipeline-fill cost and overshoot steady state, which would
//           otherwise trigger a spurious reaction at startup.
//
// The component has no ports: it runs once per iteration as its own
// task. Without a live registry attached to the run it is inert.
class PolicyComponent : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::ComponentConfig& config) {
    auto comp = std::unique_ptr<PolicyComponent>(new PolicyComponent());
    SUP_ASSIGN_OR_RETURN(comp->queue_,
                         hinch::param_string(config.params, "queue"));
    SUP_ASSIGN_OR_RETURN(std::string rules,
                         hinch::param_string(config.params, "rules"));
    comp->period_ = hinch::param_int_or(config.params, "period", 1);
    comp->hold_ = hinch::param_int_or(config.params, "hold", 0);
    comp->warmup_ = hinch::param_int_or(config.params, "warmup", 0);
    if (comp->period_ < 1)
      return support::invalid_argument("policy: period must be >= 1");
    if (comp->hold_ < 0 || comp->warmup_ < 0)
      return support::invalid_argument("policy: hold/warmup must be >= 0");
    for (const std::string& entry : support::split(rules, ';')) {
      if (support::trim(entry).empty()) continue;
      auto parts = support::split(entry, ':');
      if (parts.size() != 5)
        return support::invalid_argument(
            "policy: rules entries are metric:high:low:on_high:on_low");
      Rule rule;
      rule.metric = std::string(support::trim(parts[0]));
      SUP_ASSIGN_OR_RETURN(rule.high, support::parse_double(parts[1]));
      SUP_ASSIGN_OR_RETURN(rule.low, support::parse_double(parts[2]));
      rule.on_high = std::string(support::trim(parts[3]));
      rule.on_low = std::string(support::trim(parts[4]));
      if (rule.high < rule.low)
        return support::invalid_argument(
            "policy: rule '" + rule.metric + "' has high < low");
      comp->rules_.push_back(std::move(rule));
    }
    if (comp->rules_.empty())
      return support::invalid_argument("policy: no rules given");
    return support::Result<std::unique_ptr<hinch::Component>>(
        std::move(comp));
  }

  void reset() override {
    for (Rule& r : rules_) {
      r.above = false;
      r.last_action_iter = -1;
    }
  }

  void run(hinch::ExecContext& ctx) override {
    // A poll is a snapshot plus a handful of comparisons.
    ctx.charge_compute(120);
    int64_t it = ctx.iteration();
    if (it < warmup_ || it % period_ != 0) return;
    obs::MetricsRegistry* metrics = ctx.metrics();
    if (metrics == nullptr) return;  // run without live publication
    obs::MetricsRegistry::Snapshot snap = metrics->snapshot();
    for (Rule& r : rules_) {
      if (!snap.has(r.metric)) continue;  // executor has not published yet
      double value = snap.get_double(r.metric);
      if (r.last_action_iter >= 0 && it - r.last_action_iter < hold_)
        continue;
      // Two-threshold hysteresis: only a crossing of the *far* edge of
      // the band flips the state, so noise inside (low, high) cannot
      // make the manager oscillate between options.
      if (!r.above && value >= r.high) {
        r.above = true;
        r.last_action_iter = it;
        if (!r.on_high.empty())
          ctx.send_event(queue_, hinch::Event{r.on_high, r.metric});
      } else if (r.above && value <= r.low) {
        r.above = false;
        r.last_action_iter = it;
        if (!r.on_low.empty())
          ctx.send_event(queue_, hinch::Event{r.on_low, r.metric});
      }
    }
  }

 private:
  struct Rule {
    std::string metric;
    double high = 0;
    double low = 0;
    std::string on_high;
    std::string on_low;
    bool above = false;           // current side of the hysteresis band
    int64_t last_action_iter = -1;
  };

  std::string queue_;
  std::vector<Rule> rules_;
  int64_t period_ = 1;
  int64_t hold_ = 0;
  int64_t warmup_ = 0;
};

// Charges a stepped compute load: `cycles` per iteration, switching to
// `step_cycles` from iteration `step_at` on, and back to `cycles` from
// `restore_at` (default: never). The knob the adaptation bench turns to
// make live.cycles_per_iter move. No ports; runs as its own task.
class VarLoad : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::ComponentConfig& config) {
    auto comp = std::unique_ptr<VarLoad>(new VarLoad());
    SUP_ASSIGN_OR_RETURN(comp->cycles_,
                         hinch::param_int(config.params, "cycles"));
    comp->step_at_ = hinch::param_int_or(config.params, "step_at", -1);
    comp->step_cycles_ =
        hinch::param_int_or(config.params, "step_cycles", comp->cycles_);
    comp->restore_at_ = hinch::param_int_or(config.params, "restore_at", -1);
    if (comp->cycles_ < 0 || comp->step_cycles_ < 0)
      return support::invalid_argument("var_load: cycles must be >= 0");
    return support::Result<std::unique_ptr<hinch::Component>>(
        std::move(comp));
  }

  void run(hinch::ExecContext& ctx) override {
    int64_t it = ctx.iteration();
    bool stepped = step_at_ >= 0 && it >= step_at_ &&
                   (restore_at_ < 0 || it < restore_at_);
    ctx.charge_compute(
        static_cast<uint64_t>(stepped ? step_cycles_ : cycles_));
  }

 private:
  int64_t cycles_ = 0;
  int64_t step_at_ = -1;
  int64_t step_cycles_ = 0;
  int64_t restore_at_ = -1;
};

}  // namespace

void register_adaptive(hinch::ComponentRegistry& registry) {
  registry.register_class("policy", &PolicyComponent::create);
  registry.register_class("var_load", &VarLoad::create);
}

}  // namespace components
