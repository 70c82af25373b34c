#include "hinch/stream.hpp"

namespace hinch {

Packet Packet::of_frame(media::FramePtr frame) {
  SUP_CHECK(frame != nullptr);
  return of(std::move(frame));
}

Stream::Stream(std::string name, int depth)
    : name_(std::move(name)), depth_(depth) {
  SUP_CHECK(depth >= 1);
  slots_.resize(static_cast<size_t>(depth));
  written_iter_.assign(static_cast<size_t>(depth), -1);
}

void Stream::write(int64_t iter, Packet packet) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t s = slot_of(iter);
  slots_[s] = std::move(packet);
  written_iter_[s] = iter;
}

const Packet& Stream::read(int64_t iter) const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t s = slot_of(iter);
  SUP_CHECK_MSG(written_iter_[s] == iter,
                ("stream '" + name_ + "' read before write").c_str());
  return slots_[s];
}

Packet& Stream::slot(int64_t iter) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t s = slot_of(iter);
  // In-place consumers are readers first: the slot must already hold this
  // iteration's data. Marking it written here (as an earlier version did)
  // would let a mis-scheduled consumer silently bless a stale or empty
  // slot for every later reader.
  SUP_CHECK_MSG(written_iter_[s] == iter,
                ("stream '" + name_ + "' in-place access before write").c_str());
  return slots_[s];
}

Packet& Stream::acquire_slot(int64_t iter) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t s = slot_of(iter);
  SUP_CHECK_MSG(written_iter_[s] != iter,
                ("stream '" + name_ + "' slot acquired twice").c_str());
  return slots_[s];
}

void Stream::commit_slot(int64_t iter) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t s = slot_of(iter);
  written_iter_[s] = iter;
}

media::FramePtr Stream::get_or_alloc_frame(int64_t iter,
                                           media::PixelFormat fmt, int width,
                                           int height) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t s = slot_of(iter);
  Packet& p = slots_[s];
  if (!p.empty()) {
    media::FramePtr f = p.frame();
    if (f->format() == fmt && f->width() == width && f->height() == height) {
      written_iter_[s] = iter;
      return f;
    }
  }
  media::FramePtr f = media::make_frame(fmt, width, height);
  p = Packet::of_frame(f);
  written_iter_[s] = iter;
  return f;
}

bool Stream::has(int64_t iter) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return written_iter_[slot_of(iter)] == iter;
}

void Stream::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  written_iter_.assign(static_cast<size_t>(depth_), -1);
}

}  // namespace hinch
