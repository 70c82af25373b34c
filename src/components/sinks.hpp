// Public access to sink components' accumulated state, used by tests and
// benchmarks to verify that different executions (sequential baseline,
// XSPCL/sim, XSPCL/threads, different core counts) produced identical
// output video.
#pragma once

#include <mutex>
#include <span>
#include <vector>

#include "media/frame.hpp"
#include "media/metrics.hpp"

namespace components {

class SinkState {
 public:
  uint64_t checksum() const;
  int frames() const;
  media::FramePtr frame(int i) const;  // only when built with store=1

  // Counts one output frame: folds its plane digests (media::plane_digest,
  // in plane order) into the checksum, so the checksum is the
  // media::frame_hash chain of the frames, and keeps `keep` if not null.
  void record(std::span<const uint64_t> plane_digests, media::FramePtr keep);
  void clear() {
    std::lock_guard<std::mutex> lock(mutex);
    hash = media::kFnvBasis;
    count = 0;
    stored.clear();
  }

 private:
  mutable std::mutex mutex;
  uint64_t hash = media::kFnvBasis;
  int count = 0;
  std::vector<media::FramePtr> stored;
};

// Implemented by sink components; retrieve with
//   dynamic_cast<const SinkAccess*>(&program.component(i))
class SinkAccess {
 public:
  virtual ~SinkAccess() = default;
  virtual const SinkState& sink() const = 0;
};

}  // namespace components
