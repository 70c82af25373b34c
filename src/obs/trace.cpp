#include "obs/trace.hpp"

#include <algorithm>

namespace obs {
namespace {

size_t round_up_pow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* category_name(Category c) {
  switch (c) {
    case Category::kTask:
      return "task";
    case Category::kSched:
      return "sched";
    case Category::kReconfig:
      return "reconfig";
    case Category::kCache:
      return "cache";
    case Category::kStream:
      return "stream";
  }
  return "?";
}

TraceRecorder::TraceRecorder(size_t capacity)
    : ring_(round_up_pow2(std::max<size_t>(capacity, 2))),
      mask_(ring_.size() - 1) {}

std::vector<TraceEvent> TraceRecorder::collect() const {
  uint64_t h = head_.load(std::memory_order_acquire);
  uint64_t first = h > ring_.size() ? h - ring_.size() : 0;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<size_t>(h - first));
  for (uint64_t i = first; i < h; ++i)
    out.push_back(ring_[static_cast<size_t>(i) & mask_]);
  return out;
}

TraceSession::TraceSession(size_t ring_capacity)
    : ring_capacity_(ring_capacity) {}

void TraceSession::begin_run(int lanes, ClockDomain clock) {
  SUP_CHECK(lanes >= 1);
  clock_ = clock;
  recorders_.clear();
  recorders_.reserve(static_cast<size_t>(lanes));
  for (int i = 0; i < lanes; ++i)
    recorders_.push_back(std::make_unique<TraceRecorder>(ring_capacity_));
}

uint16_t TraceSession::intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(names_mutex_);
  for (size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<uint16_t>(i);
  SUP_CHECK_MSG(names_.size() < 65535, "too many distinct trace names");
  names_.push_back(name);
  return static_cast<uint16_t>(names_.size() - 1);
}

std::vector<std::string> TraceSession::names() const {
  std::lock_guard<std::mutex> lock(names_mutex_);
  return names_;
}

uint64_t TraceSession::dropped() const {
  uint64_t total = 0;
  for (const auto& r : recorders_) total += r->dropped();
  return total;
}

uint64_t TraceSession::emitted() const {
  uint64_t total = 0;
  for (const auto& r : recorders_) total += r->emitted();
  return total;
}

}  // namespace obs
