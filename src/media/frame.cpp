#include "media/frame.hpp"

#include <cstring>
#include <mutex>
#include <new>
#include <unordered_map>

namespace media {

namespace {

constexpr std::align_val_t kPixelAlign{64};

// Pixel blocks of freed frames, kept by size for the next frame of that
// size. A session whose sink keeps its output frees megabytes of them at
// once when it ends; malloc hands such blocks back to the OS by an amount
// that depends on its own state, and the next session faults those pages
// in again. Blocks under kMinBytes stay with malloc's bins, and at most
// kMaxCachedBytes wait here.
class PixelPool {
 public:
  uint8_t* take(size_t bytes) {
    if (bytes >= kMinBytes) {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = free_.find(bytes);
      if (it != free_.end() && !it->second.empty()) {
        uint8_t* p = it->second.back();
        it->second.pop_back();
        cached_ -= bytes;
        return p;
      }
    }
    return static_cast<uint8_t*>(::operator new[](bytes, kPixelAlign));
  }

  void give(uint8_t* p, size_t bytes) {
    if (bytes >= kMinBytes) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (cached_ + bytes <= kMaxCachedBytes) {
        free_[bytes].push_back(p);
        cached_ += bytes;
        return;
      }
    }
    ::operator delete[](p, kPixelAlign);
  }

 private:
  static constexpr size_t kMinBytes = size_t{64} << 10;
  static constexpr size_t kMaxCachedBytes = size_t{256} << 20;

  std::mutex mutex_;
  std::unordered_map<size_t, std::vector<uint8_t*>> free_;
  size_t cached_ = 0;
};

// Never destroyed: frames held by other statics may die after it would.
PixelPool& pixel_pool() {
  static PixelPool* pool = new PixelPool;
  return *pool;
}

}  // namespace

void Frame::ReleasePixels::operator()(uint8_t* p) const {
  pixel_pool().give(p, bytes);
}

int plane_count(PixelFormat fmt) { return fmt == PixelFormat::kGray ? 1 : 3; }

void plane_dims(PixelFormat fmt, int w, int h, int plane, int* pw, int* ph) {
  SUP_CHECK(plane >= 0 && plane < plane_count(fmt));
  if (plane == 0 || fmt == PixelFormat::kYuv444) {
    *pw = w;
    *ph = h;
  } else {
    *pw = (w + 1) / 2;
    *ph = (h + 1) / 2;
  }
}

Frame::Frame(PixelFormat fmt, int width, int height)
    : fmt_(fmt), width_(width), height_(height) {
  SUP_CHECK(width > 0 && height > 0);
  size_t total = 0;
  const int n = plane_count(fmt);
  offsets_.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    int pw = 0;
    int ph = 0;
    plane_dims(fmt, width, height, i, &pw, &ph);
    offsets_[static_cast<size_t>(i)] = total;
    total += static_cast<size_t>(pw) * static_cast<size_t>(ph);
  }
  data_ = std::unique_ptr<uint8_t[], ReleasePixels>(pixel_pool().take(total),
                                                    ReleasePixels{total});
  std::memset(data_.get(), 0, total);
}

Frame::Frame(const Frame& other)
    : fmt_(other.fmt_),
      width_(other.width_),
      height_(other.height_),
      offsets_(other.offsets_),
      data_(pixel_pool().take(other.bytes()), ReleasePixels{other.bytes()}) {
  std::memcpy(data_.get(), other.raw(), other.bytes());
}

PlaneView Frame::plane(int i) {
  int pw = 0;
  int ph = 0;
  plane_dims(fmt_, width_, height_, i, &pw, &ph);
  return PlaneView{data_.get() + offsets_[static_cast<size_t>(i)], pw, ph,
                   pw};
}

ConstPlaneView Frame::plane(int i) const {
  int pw = 0;
  int ph = 0;
  plane_dims(fmt_, width_, height_, i, &pw, &ph);
  return ConstPlaneView{data_.get() + offsets_[static_cast<size_t>(i)], pw,
                        ph, pw};
}

void Frame::fill(uint8_t value) {
  std::memset(data_.get(), value, bytes());
}

bool Frame::equals(const Frame& other) const {
  return fmt_ == other.fmt_ && width_ == other.width_ &&
         height_ == other.height_ &&
         std::memcmp(raw(), other.raw(), bytes()) == 0;
}

FramePtr Frame::clone() const {
  return FramePtr(new Frame(*this));
}

FramePtr make_frame(PixelFormat fmt, int width, int height) {
  return std::make_shared<Frame>(fmt, width, height);
}

}  // namespace media
