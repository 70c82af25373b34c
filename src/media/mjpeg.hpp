// Video containers used by the built-in applications:
//  - RawVideo: uncompressed planar YUV clip (in memory or on disk).
//  - MjpegClip: a sequence of independently coded baseline JPEG frames
//    (motion-JPEG), the input format of the paper's JPiP application.
//
// On-disk formats are tiny self-describing headers + payload; they stand
// in for the paper's proprietary clips (see DESIGN.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "media/frame.hpp"
#include "media/synth.hpp"
#include "support/status.hpp"

namespace media {

// --- uncompressed clip --------------------------------------------------------

class RawVideo {
 public:
  RawVideo(PixelFormat fmt, int width, int height)
      : fmt_(fmt), width_(width), height_(height) {}

  PixelFormat format() const { return fmt_; }
  int width() const { return width_; }
  int height() const { return height_; }
  int frame_count() const { return static_cast<int>(frames_.size()); }

  void append(FramePtr frame);
  const FramePtr& frame(int i) const;

  // Serialize to / parse from the "RAWV" on-disk format.
  support::Status save(const std::string& path) const;
  static support::Result<RawVideo> load(const std::string& path);

  // Generate `n` synthetic frames from `spec` (must match fmt/size).
  static RawVideo synthesize(const SynthSpec& spec, int n);

 private:
  PixelFormat fmt_;
  int width_;
  int height_;
  std::vector<FramePtr> frames_;
};

// --- motion-JPEG clip ------------------------------------------------------------

class MjpegClip {
 public:
  int frame_count() const { return static_cast<int>(frames_.size()); }
  const std::vector<uint8_t>& frame(int i) const;
  void append(std::vector<uint8_t> jpeg_bytes);

  // Total compressed payload size.
  size_t total_bytes() const;

  support::Status save(const std::string& path) const;
  static support::Result<MjpegClip> load(const std::string& path);

  // Encode every frame of a raw clip at the given quality.
  // restart_interval > 0 emits restart markers every that many MCUs per
  // frame, making the entropy stream splittable for parallel decode.
  static support::Result<MjpegClip> encode(const RawVideo& video,
                                           int quality,
                                           int restart_interval = 0);

 private:
  std::vector<std::vector<uint8_t>> frames_;
};

}  // namespace media
