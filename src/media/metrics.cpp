#include "media/metrics.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace media {

double mse(ConstPlaneView a, ConstPlaneView b) {
  SUP_CHECK(a.width == b.width && a.height == b.height);
  double sum = 0;
  for (int y = 0; y < a.height; ++y) {
    const uint8_t* ra = a.row(y);
    const uint8_t* rb = b.row(y);
    for (int x = 0; x < a.width; ++x) {
      double d = static_cast<double>(ra[x]) - rb[x];
      sum += d * d;
    }
  }
  return sum / (static_cast<double>(a.width) * a.height);
}

double psnr(const Frame& a, const Frame& b) {
  SUP_CHECK(a.format() == b.format() && a.width() == b.width() &&
            a.height() == b.height());
  double total_se = 0;
  size_t total_px = 0;
  for (int p = 0; p < a.planes(); ++p) {
    ConstPlaneView pa = a.plane(p);
    total_se += mse(pa, b.plane(p)) * static_cast<double>(pa.bytes());
    total_px += pa.bytes();
  }
  double m = total_se / static_cast<double>(total_px);
  if (m <= 0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(255.0 * 255.0 / m);
}

uint64_t plane_digest(ConstPlaneView p) {
  constexpr int kLanes = 4;
  uint64_t lane[kLanes] = {kFnvBasis, kFnvBasis, kFnvBasis, kFnvBasis};
  uint64_t tail = kFnvBasis;
  const size_t words = static_cast<size_t>(p.width) / 8;
  const size_t rest = static_cast<size_t>(p.width) % 8;
  for (int y = 0; y < p.height; ++y) {
    const uint8_t* r = p.row(y);
    // Whole groups of kLanes words first: the lanes' multiplies are
    // independent, which the compiler sees only with the lane index fixed.
    size_t i = 0;
    for (; i + kLanes <= words; i += kLanes) {
      for (int k = 0; k < kLanes; ++k) {
        uint64_t w = 0;
        std::memcpy(&w, r + 8 * (i + static_cast<size_t>(k)), 8);
        lane[k] = hash_fold(lane[k], w);
      }
    }
    for (; i < words; ++i) {
      uint64_t w = 0;
      std::memcpy(&w, r + 8 * i, 8);
      lane[i % kLanes] = hash_fold(lane[i % kLanes], w);
    }
    if (rest != 0) {
      uint64_t w = 0;
      std::memcpy(&w, r + 8 * words, rest);
      tail = hash_fold(tail, w);
    }
  }
  uint64_t d = hash_fold(kFnvBasis, p.bytes());
  for (uint64_t l : lane) d = hash_fold(d, l);
  return hash_fold(d, tail);
}

uint64_t frame_hash(const Frame& f, uint64_t seed) {
  uint64_t h = seed;
  for (int p = 0; p < f.planes(); ++p)
    h = hash_fold(h, plane_digest(f.plane(p)));
  return h;
}

int max_abs_diff(const Frame& a, const Frame& b) {
  SUP_CHECK(a.format() == b.format() && a.width() == b.width() &&
            a.height() == b.height());
  int maxd = 0;
  for (int p = 0; p < a.planes(); ++p) {
    ConstPlaneView pa = a.plane(p);
    ConstPlaneView pb = b.plane(p);
    for (int y = 0; y < pa.height; ++y) {
      const uint8_t* ra = pa.row(y);
      const uint8_t* rb = pb.row(y);
      for (int x = 0; x < pa.width; ++x) {
        int d = std::abs(static_cast<int>(ra[x]) - rb[x]);
        if (d > maxd) maxd = d;
      }
    }
  }
  return maxd;
}

}  // namespace media
