// Planar YUV image frames — the payload that flows through Hinch streams.
//
// The paper's applications process the Y, U, and V colour fields as
// separate concurrent components, so all kernel APIs operate on single
// planes (PlaneView) with explicit row ranges for data-parallel slices.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "support/check.hpp"

namespace media {

// Mutable view of one image plane. Does not own the pixels.
struct PlaneView {
  uint8_t* data = nullptr;
  int width = 0;
  int height = 0;
  int stride = 0;  // bytes between successive rows

  uint8_t* row(int y) {
    SUP_DCHECK(y >= 0 && y < height);
    return data + static_cast<ptrdiff_t>(y) * stride;
  }
  const uint8_t* row(int y) const {
    SUP_DCHECK(y >= 0 && y < height);
    return data + static_cast<ptrdiff_t>(y) * stride;
  }
  size_t bytes() const {
    return static_cast<size_t>(width) * static_cast<size_t>(height);
  }
};

// Read-only view of one image plane.
struct ConstPlaneView {
  const uint8_t* data = nullptr;
  int width = 0;
  int height = 0;
  int stride = 0;

  ConstPlaneView() = default;
  ConstPlaneView(const uint8_t* d, int w, int h, int s)
      : data(d), width(w), height(h), stride(s) {}
  ConstPlaneView(const PlaneView& v)  // NOLINT: implicit by design
      : data(v.data), width(v.width), height(v.height), stride(v.stride) {}

  const uint8_t* row(int y) const {
    SUP_DCHECK(y >= 0 && y < height);
    return data + static_cast<ptrdiff_t>(y) * stride;
  }
  size_t bytes() const {
    return static_cast<size_t>(width) * static_cast<size_t>(height);
  }
};

enum class PixelFormat {
  kGray,    // one plane
  kYuv420,  // chroma subsampled 2x2
  kYuv444,  // full-resolution chroma
};

// Number of planes for a format (1 or 3).
int plane_count(PixelFormat fmt);

// Dimensions of plane `i` for a `w`x`h` frame of the given format.
void plane_dims(PixelFormat fmt, int w, int h, int plane, int* pw, int* ph);

// A planar image frame. Owns its pixel storage: one contiguous,
// cache-line-aligned block. Blocks of 64 KiB and more come from, and go
// back to, a process-wide pool kept by size (frame.cpp), so a graph that
// allocates the same frame sizes over and over reuses resident pages.
class Frame {
 public:
  Frame(PixelFormat fmt, int width, int height);
  Frame& operator=(const Frame&) = delete;

  PixelFormat format() const { return fmt_; }
  int width() const { return width_; }
  int height() const { return height_; }
  int planes() const { return plane_count(fmt_); }

  PlaneView plane(int i);
  ConstPlaneView plane(int i) const;

  // Total payload size in bytes.
  size_t bytes() const { return data_.get_deleter().bytes; }
  // Byte offset of plane `i` inside the contiguous payload (used for
  // memory-traffic accounting on stream slots).
  size_t plane_offset(int i) const {
    SUP_CHECK(i >= 0 && i < planes());
    return offsets_[static_cast<size_t>(i)];
  }
  uint8_t* raw() { return data_.get(); }
  const uint8_t* raw() const { return data_.get(); }

  // Fill every plane with a constant value.
  void fill(uint8_t value);

  // Deep equality (format, dimensions, pixels).
  bool equals(const Frame& other) const;

  std::shared_ptr<Frame> clone() const;

 private:
  Frame(const Frame& other);  // deep copy; callers use clone()

  // Hands a pixel block back to the pool (or frees it).
  struct ReleasePixels {
    size_t bytes;
    void operator()(uint8_t* p) const;
  };

  PixelFormat fmt_;
  int width_;
  int height_;
  std::vector<size_t> offsets_;  // per-plane start offset into data_
  std::unique_ptr<uint8_t[], ReleasePixels> data_;
};

using FramePtr = std::shared_ptr<Frame>;

FramePtr make_frame(PixelFormat fmt, int width, int height);

}  // namespace media
