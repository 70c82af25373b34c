#include <algorithm>
#include <atomic>
#include <cstdio>

#include "bench.hpp"
#include "hinch/program.hpp"
#include "obs/trace.hpp"
#include "sp/graph.hpp"

namespace perfbench {
namespace {

// Small stable id per recording thread; spans nest only within a lane.
int this_lane() {
  static std::atomic<int> next{0};
  thread_local int lane = next.fetch_add(1);
  return lane;
}

}  // namespace

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

uint64_t SpanLog::now_ns() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count());
}

SpanLog::Scope::Scope(SpanLog* log, const char* layer, std::string name)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.layer = layer;
  span_.name = std::move(name);
  span_.lane = this_lane();
  span_.start_ns = log_->now_ns();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  span_.end_ns = log_->now_ns();
  log_->add(std::move(span_));
}

void SpanLog::add(Span s) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::write_json(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<Span> all = spans();
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 0, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}%s\n",
                 s.name.c_str(), s.layer.c_str(), s.lane,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns()) / 1e3,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

std::map<std::pair<std::string, std::string>, SpanTotals> aggregate(
    const std::vector<Span>& spans) {
  // Sort by lane, then start; an enclosing span sorts before the spans
  // it contains (earlier start, or same start and longer).
  std::vector<const Span*> order;
  order.reserve(spans.size());
  for (const Span& s : spans) order.push_back(&s);
  std::sort(order.begin(), order.end(), [](const Span* a, const Span* b) {
    if (a->lane != b->lane) return a->lane < b->lane;
    if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
    return a->end_ns > b->end_ns;
  });

  std::map<std::pair<std::string, std::string>, SpanTotals> out;
  std::vector<uint64_t> child_ns(order.size(), 0);
  std::vector<size_t> open;  // indices into `order`, innermost last
  for (size_t i = 0; i < order.size(); ++i) {
    const Span& s = *order[i];
    while (!open.empty()) {
      const Span& top = *order[open.back()];
      if (top.lane == s.lane && s.start_ns < top.end_ns) break;
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += s.dur_ns();
    open.push_back(i);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    const Span& s = *order[i];
    SpanTotals& t = out[{s.layer, s.name}];
    ++t.count;
    t.total_ms += static_cast<double>(s.dur_ns()) / 1e6;
    uint64_t self = s.dur_ns() > child_ns[i] ? s.dur_ns() - child_ns[i] : 0;
    t.self_ms += static_cast<double>(self) / 1e6;
  }
  return out;
}

double busy_fraction(const std::vector<Span>& spans, double wall_ms,
                     int workers) {
  if (wall_ms <= 0 || workers <= 0) return 0;
  double busy_ms = 0;
  for (const Span& s : spans) busy_ms += static_cast<double>(s.dur_ns()) / 1e6;
  return busy_ms / (wall_ms * workers);
}

std::string task_class(
    const std::string& instance,
    const std::map<std::string, std::string>& instance_class) {
  std::string leaf = instance.substr(0, instance.find('#'));
  auto it = instance_class.find(leaf);
  std::string klass = it == instance_class.end() ? "unknown" : it->second;
  if (klass == "blur_h" || klass == "blur_v" || klass == "blur_hv")
    return "blur";
  return klass;
}

std::vector<std::string> task_classes(hinch::Program& prog,
                                      const sp::Node& graph) {
  std::map<std::string, std::string> instance_class;
  for (const sp::Node* leaf : sp::collect_leaves(graph))
    instance_class[leaf->leaf.instance] = leaf->leaf.klass;
  std::vector<std::string> out;
  out.reserve(prog.tasks().size());
  for (const hinch::Task& t : prog.tasks()) {
    if (t.kind != hinch::TaskKind::kComponent)
      out.push_back("manager");
    else if (t.components.size() != 1)
      out.push_back("group");
    else
      out.push_back(task_class(prog.component(t.components[0]).instance(),
                               instance_class));
  }
  return out;
}

uint64_t collect_task_spans(const obs::TraceSession& trace,
                            const std::vector<std::string>& classes,
                            int lane_base, std::vector<Span>* out) {
  for (int lane = 0; lane < trace.lanes(); ++lane) {
    for (const obs::TraceEvent& ev : trace.recorder(lane)->collect()) {
      if (ev.kind != obs::EventKind::kSpan || ev.cat != obs::Category::kTask)
        continue;
      if (ev.arg < 0 || static_cast<size_t>(ev.arg) >= classes.size())
        continue;
      out->push_back(Span{"components", classes[static_cast<size_t>(ev.arg)],
                          lane_base + lane, ev.ts, ev.ts + ev.dur});
    }
  }
  return trace.dropped();
}

}  // namespace perfbench
