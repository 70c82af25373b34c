// Streaming communication (§2 item 3a): the synchronous primitive that
// carries large data between components.
//
// A Stream is a FIFO with `depth` slots, one per in-flight pipeline
// iteration: the producer of iteration k writes slot k mod depth, the
// consumers of iteration k read the same slot. The scheduler guarantees
// the producer of iteration k completes before its consumers start and
// that at most `depth` iterations are in flight, so slot reuse is safe —
// this mirrors the bounded FIFO the paper describes, with the capacity
// check folded into the iteration window.
//
// For data-parallel `slice` regions all copies share one slot and operate
// on disjoint row ranges of the same payload.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <typeinfo>
#include <vector>

#include "media/frame.hpp"
#include "support/check.hpp"

namespace hinch {

// The unit of stream communication: a shared, typed payload. Payloads
// are usually media::Frame, but any shared_ptr'd type works (the JPiP
// graph streams JPEG coefficient images between the decode and IDCT
// components).
class Packet {
 public:
  Packet() = default;

  static Packet of_frame(media::FramePtr frame);

  template <typename T>
  static Packet of(std::shared_ptr<T> value) {
    Packet p;
    p.data_ = std::static_pointer_cast<void>(std::move(value));
    p.type_ = &typeid(T);
    return p;
  }

  // Convenience for immutable payloads (e.g. compressed frames shared
  // with a clip). Consumers receive them through get<T>() and must treat
  // them as read-only.
  template <typename T>
  static Packet of_const(std::shared_ptr<const T> value) {
    return of(std::const_pointer_cast<T>(std::move(value)));
  }

  bool empty() const { return data_ == nullptr; }

  // Typed access; aborts on type mismatch (a wiring bug, not user error).
  template <typename T>
  std::shared_ptr<T> get() const {
    SUP_CHECK_MSG(data_ != nullptr, "reading an empty stream slot");
    SUP_CHECK_MSG(type_ && *type_ == typeid(T), "stream payload type mismatch");
    return std::static_pointer_cast<T>(data_);
  }

  media::FramePtr frame() const { return get<media::Frame>(); }

 private:
  std::shared_ptr<void> data_;
  const std::type_info* type_ = nullptr;
};

class Stream {
 public:
  Stream(std::string name, int depth);

  const std::string& name() const { return name_; }
  int depth() const { return depth_; }

  // Producer side: publish the packet for iteration `iter`.
  void write(int64_t iter, Packet packet);

  // Consumer side: the packet of iteration `iter`. The slot must have
  // been written by a component scheduled earlier in the iteration.
  const Packet& read(int64_t iter) const;

  // In-place access for read-modify-write chains (e.g. blending into a
  // shared canvas): returns the mutable packet of iteration `iter`. The
  // slot must already have been written for `iter` — in-place consumers
  // are readers first, and marking an unwritten slot as written here
  // would defeat the read-before-write guardrail for every later reader.
  // Producers that want to fill a slot in place use acquire_slot() +
  // commit_slot() instead.
  Packet& slot(int64_t iter);

  // Two-phase in-place production: acquire_slot() hands out the slot's
  // packet WITHOUT marking it written (readers still fault), the
  // producer fills it, then commit_slot() publishes it for `iter`.
  Packet& acquire_slot(int64_t iter);
  void commit_slot(int64_t iter);

  // True when iteration `iter`'s slot holds data written for that
  // iteration (used by tests and defensive checks).
  bool has(int64_t iter) const;

  // For data-parallel producers that share one frame per iteration: under
  // the stream lock, return the frame already published for `iter`, or —
  // when the slot holds a matching frame from a retired iteration — reuse
  // it as this iteration's payload (frame-pool behaviour), or allocate a
  // fresh one. All slice copies of a producer call this and then write
  // their disjoint row bands.
  media::FramePtr get_or_alloc_frame(int64_t iter, media::PixelFormat fmt,
                                     int width, int height);

  // Forget which iterations the slots belong to (start of a new run).
  // Slot payloads are kept as a warm frame pool.
  void reset();

  // Stable small index for cost accounting (set by the Program).
  int index() const { return index_; }
  void set_index(int idx) { index_ = idx; }

 private:
  size_t slot_of(int64_t iter) const {
    SUP_DCHECK(iter >= 0);
    return static_cast<size_t>(iter % depth_);
  }

  std::string name_;
  int depth_;
  int index_ = -1;
  mutable std::mutex mutex_;
  std::vector<Packet> slots_;
  std::vector<int64_t> written_iter_;  // -1 = never written
};

}  // namespace hinch
