#include "media/metrics.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
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

namespace {

uint64_t load_word(const uint8_t* p) {
  uint64_t w = 0;
  std::memcpy(&w, p, 8);
  return w;
}

}  // namespace

uint64_t plane_digest(ConstPlaneView p) {
  // Four lanes as four named scalars, not an array: with an array GCC's
  // -O2 vectorizer packs the lanes into SSE2 registers and emulates each
  // 64-bit multiply, at half the scalar speed.
  uint64_t l0 = kFnvBasis, l1 = kFnvBasis, l2 = kFnvBasis, l3 = kFnvBasis;
  uint64_t tail = kFnvBasis;
  const size_t words = static_cast<size_t>(p.width) / 8;
  const size_t rest = static_cast<size_t>(p.width) % 8;
  for (int y = 0; y < p.height; ++y) {
    const uint8_t* r = p.row(y);
    size_t i = 0;
    for (; i + 4 <= words; i += 4) {
      l0 = hash_fold(l0, load_word(r + 8 * i));
      l1 = hash_fold(l1, load_word(r + 8 * i + 8));
      l2 = hash_fold(l2, load_word(r + 8 * i + 16));
      l3 = hash_fold(l3, load_word(r + 8 * i + 24));
    }
    // Up to three words left over, dealt to the lanes in order.
    if (i < words) l0 = hash_fold(l0, load_word(r + 8 * i++));
    if (i < words) l1 = hash_fold(l1, load_word(r + 8 * i++));
    if (i < words) l2 = hash_fold(l2, load_word(r + 8 * i));
    if (rest != 0) {
      uint64_t w = 0;
      std::memcpy(&w, r + 8 * words, rest);
      tail = hash_fold(tail, w);
    }
  }
  uint64_t d = hash_fold(kFnvBasis, p.bytes());
  for (uint64_t l : {l0, l1, l2, l3}) d = hash_fold(d, l);
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
