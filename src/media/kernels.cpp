#include "media/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "media/kernels_simd.hpp"

// Hot-path structure: every kernel splits border columns/rows from the
// interior so the inner loops run clamp-free on hoisted row pointers;
// the interiors themselves go through the KernelOps dispatch table
// (scalar / AVX2, kernels_simd.hpp). All tiers must stay
// bit-identical to the straightforward scalar formulation
// (tests/test_kernels_equiv.cpp pins them against unoptimized references
// and against each other); the `*_cycles` companions model the simulated
// core and are independent of these host-side choices (docs/PERF.md).

namespace media {
namespace {

inline int clampi(int v, int lo, int hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

inline uint8_t mix(uint8_t fg, uint8_t bg, int alpha256) {
  int v = (fg * alpha256 + bg * (256 - alpha256) + 128) >> 8;
  return static_cast<uint8_t>(v);
}

// Average of one factor x factor source box with rounding (generic-factor
// fallback; row pointer hoisted out of the dx loop by the caller).
inline uint8_t box_average_rows(const uint8_t* top, int stride, int factor) {
  unsigned sum = 0;
  const uint8_t* row = top;
  for (int dy = 0; dy < factor; ++dy) {
    for (int dx = 0; dx < factor; ++dx) sum += row[dx];
    row += stride;
  }
  unsigned n = static_cast<unsigned>(factor) * static_cast<unsigned>(factor);
  return static_cast<uint8_t>((sum + n / 2) / n);
}

// Horizontal taps over [x0, x1) with border clamping — used only for the
// few columns within `r` of either edge.
inline void blur_h_border(const uint8_t* in, uint8_t* out, int x0, int x1,
                          const int16_t* taps, int r, int width) {
  for (int x = x0; x < x1; ++x) {
    int acc = 128;
    for (int k = -r; k <= r; ++k)
      acc += taps[k + r] * in[clampi(x + k, 0, width - 1)];
    out[x] = static_cast<uint8_t>(acc >> 8);
  }
}

// ---- scalar row kernels (the reference tier) --------------------------------

void blur_h3_row_scalar(const uint8_t* in, uint8_t* out, int w) {
  const int t0 = detail::kBlurTaps3[0], t1 = detail::kBlurTaps3[1],
            t2 = detail::kBlurTaps3[2];
  for (int x = 1; x < w - 1; ++x) {
    int acc = 128 + t0 * in[x - 1] + t1 * in[x] + t2 * in[x + 1];
    out[x] = static_cast<uint8_t>(acc >> 8);
  }
}

void blur_h5_row_scalar(const uint8_t* in, uint8_t* out, int w) {
  const int t0 = detail::kBlurTaps5[0], t1 = detail::kBlurTaps5[1],
            t2 = detail::kBlurTaps5[2], t3 = detail::kBlurTaps5[3],
            t4 = detail::kBlurTaps5[4];
  for (int x = 2; x < w - 2; ++x) {
    int acc = 128 + t0 * in[x - 2] + t1 * in[x - 1] + t2 * in[x] +
              t3 * in[x + 1] + t4 * in[x + 2];
    out[x] = static_cast<uint8_t>(acc >> 8);
  }
}

void blur_v3_row_scalar(const uint8_t* ra, const uint8_t* rb,
                        const uint8_t* rc, uint8_t* out, int w) {
  const int t0 = detail::kBlurTaps3[0], t1 = detail::kBlurTaps3[1],
            t2 = detail::kBlurTaps3[2];
  for (int x = 0; x < w; ++x) {
    int acc = 128 + t0 * ra[x] + t1 * rb[x] + t2 * rc[x];
    out[x] = static_cast<uint8_t>(acc >> 8);
  }
}

void blur_v5_row_scalar(const uint8_t* ra, const uint8_t* rb,
                        const uint8_t* rc, const uint8_t* rd,
                        const uint8_t* re, uint8_t* out, int w) {
  const int t0 = detail::kBlurTaps5[0], t1 = detail::kBlurTaps5[1],
            t2 = detail::kBlurTaps5[2], t3 = detail::kBlurTaps5[3],
            t4 = detail::kBlurTaps5[4];
  for (int x = 0; x < w; ++x) {
    int acc = 128 + t0 * ra[x] + t1 * rb[x] + t2 * rc[x] + t3 * rd[x] +
              t4 * re[x];
    out[x] = static_cast<uint8_t>(acc >> 8);
  }
}

void down2_row_scalar(const uint8_t* a, const uint8_t* b, uint8_t* out,
                      int n) {
  for (int x = 0; x < n; ++x) {
    unsigned sum = static_cast<unsigned>(a[0]) + a[1] + b[0] + b[1];
    out[x] = static_cast<uint8_t>((sum + 2) >> 2);
    a += 2;
    b += 2;
  }
}

void down4_row_scalar(const uint8_t* r0, const uint8_t* r1, const uint8_t* r2,
                      const uint8_t* r3, uint8_t* out, int n) {
  for (int x = 0; x < n; ++x) {
    unsigned sum = 0;
    for (int i = 0; i < 4; ++i)
      sum += static_cast<unsigned>(r0[i]) + r1[i] + r2[i] + r3[i];
    out[x] = static_cast<uint8_t>((sum + 8) >> 4);
    r0 += 4;
    r1 += 4;
    r2 += 4;
    r3 += 4;
  }
}

void blend_row_scalar(const uint8_t* src, uint8_t* dst, int n, int alpha256) {
  for (int x = 0; x < n; ++x) dst[x] = mix(src[x], dst[x], alpha256);
}

void down2_blend_row_scalar(const uint8_t* a, const uint8_t* b, uint8_t* dst,
                            int n, int alpha256) {
  for (int x = 0; x < n; ++x) {
    unsigned sum = static_cast<unsigned>(a[0]) + a[1] + b[0] + b[1];
    uint8_t v = static_cast<uint8_t>((sum + 2) >> 2);
    dst[x] = mix(v, dst[x], alpha256);
    a += 2;
    b += 2;
  }
}

const detail::KernelOps kScalarOps = {
    KernelDispatch::kScalar,
    &blur_h3_row_scalar,
    &blur_h5_row_scalar,
    &blur_v3_row_scalar,
    &blur_v5_row_scalar,
    &down2_row_scalar,
    &down4_row_scalar,
    &blend_row_scalar,
    &down2_blend_row_scalar,
    &detail::idct8x8_scalar,
};

// ---- dispatch state ---------------------------------------------------------

std::atomic<KernelDispatch> g_policy{KernelDispatch::kAuto};
std::atomic<const detail::KernelOps*> g_ops{nullptr};

// True when this host executes AVX2 and HINCH_FORCE_SCALAR (set to
// anything but "" or "0") does not pin the scalar reference. Probed once.
bool avx2_usable() {
  static const bool usable = [] {
    const char* force = std::getenv("HINCH_FORCE_SCALAR");
    if (force != nullptr && force[0] != '\0' && std::strcmp(force, "0") != 0)
      return false;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
  }();
  return usable;
}

// Table for an explicit tier, or nullptr when the build or this host
// (with the HINCH_FORCE_SCALAR override) cannot run it.
const detail::KernelOps* resolve(KernelDispatch d) {
  const detail::KernelOps* avx2 = avx2_usable() ? detail::avx2_ops() : nullptr;
  switch (d) {
    case KernelDispatch::kScalar:
      return &kScalarOps;
    case KernelDispatch::kAvx2:
      return avx2;
    case KernelDispatch::kAuto:
      return avx2 != nullptr ? avx2 : &kScalarOps;
  }
  return &kScalarOps;
}

}  // namespace

namespace detail {

const KernelOps* scalar_ops() { return &kScalarOps; }

const KernelOps* kernel_ops() {
  const KernelOps* t = g_ops.load(std::memory_order_acquire);
  if (t == nullptr) {
    // First use: resolve the current policy. Racing first calls resolve
    // to the same table, so the blind store is idempotent.
    t = resolve(g_policy.load(std::memory_order_relaxed));
    if (t == nullptr) t = &kScalarOps;
    g_ops.store(t, std::memory_order_release);
  }
  return t;
}

}  // namespace detail

void set_kernel_dispatch(KernelDispatch dispatch) {
  const detail::KernelOps* t = resolve(dispatch);
  if (t == nullptr) t = &kScalarOps;  // requested tier unavailable
  g_policy.store(dispatch, std::memory_order_relaxed);
  g_ops.store(t, std::memory_order_release);
}

KernelDispatch kernel_dispatch() {
  return g_policy.load(std::memory_order_relaxed);
}

KernelDispatch active_kernel_dispatch() { return detail::kernel_ops()->tier; }

bool kernel_dispatch_available(KernelDispatch dispatch) {
  if (dispatch == KernelDispatch::kAuto) return true;
  const detail::KernelOps* t = resolve(dispatch);
  return t != nullptr && t->tier == dispatch;
}

const char* kernel_dispatch_name(KernelDispatch dispatch) {
  switch (dispatch) {
    case KernelDispatch::kAuto:
      return "auto";
    case KernelDispatch::kScalar:
      return "scalar";
    case KernelDispatch::kAvx2:
      return "avx2";
  }
  return "?";
}

// ---- copy ----------------------------------------------------------------

void copy_plane(ConstPlaneView src, PlaneView dst, int row0, int row1) {
  SUP_CHECK(src.width == dst.width && src.height == dst.height);
  row0 = clampi(row0, 0, dst.height);
  row1 = clampi(row1, 0, dst.height);
  for (int y = row0; y < row1; ++y)
    std::memcpy(dst.row(y), src.row(y), static_cast<size_t>(src.width));
}

uint64_t copy_cycles(int width, int rows) {
  // One load + one store per pixel; ~0.5 cycle each on a wide VLIW.
  return static_cast<uint64_t>(width) * static_cast<uint64_t>(rows);
}

uint64_t io_cycles(uint64_t bytes) { return bytes / 4; }

// ---- downscale -------------------------------------------------------------

void downscale_box(ConstPlaneView src, PlaneView dst, int factor, int row0,
                   int row1) {
  SUP_CHECK(factor >= 1);
  SUP_CHECK(src.width >= dst.width * factor);
  SUP_CHECK(src.height >= dst.height * factor);
  row0 = clampi(row0, 0, dst.height);
  row1 = clampi(row1, 0, dst.height);
  if (factor == 1) {
    for (int y = row0; y < row1; ++y)
      std::memcpy(dst.row(y), src.row(y), static_cast<size_t>(dst.width));
    return;
  }
  const detail::KernelOps* ops = detail::kernel_ops();
  if (factor == 2) {
    for (int y = row0; y < row1; ++y)
      ops->down2_row(src.row(y * 2), src.row(y * 2 + 1), dst.row(y),
                     dst.width);
    return;
  }
  if (factor == 4) {
    for (int y = row0; y < row1; ++y)
      ops->down4_row(src.row(y * 4), src.row(y * 4 + 1), src.row(y * 4 + 2),
                     src.row(y * 4 + 3), dst.row(y), dst.width);
    return;
  }
  for (int y = row0; y < row1; ++y) {
    const uint8_t* top = src.row(y * factor);
    uint8_t* out = dst.row(y);
    for (int x = 0; x < dst.width; ++x)
      out[x] = box_average_rows(top + x * factor, src.stride, factor);
  }
}

uint64_t downscale_cycles(int out_width, int out_rows, int factor) {
  // factor^2 adds + divide per output pixel.
  uint64_t per_pixel = static_cast<uint64_t>(factor) * factor + 3;
  return static_cast<uint64_t>(out_width) * out_rows * per_pixel;
}

// ---- blend -----------------------------------------------------------------

void blend(ConstPlaneView fg, PlaneView dst, int dst_x, int dst_y,
           int alpha256, int row0, int row1) {
  SUP_CHECK(alpha256 >= 0 && alpha256 <= 256);
  int y_begin = std::max({row0, dst_y, 0});
  int y_end = std::min({row1, dst_y + fg.height, dst.height});
  int x_begin = std::max(dst_x, 0);
  int x_end = std::min(dst_x + fg.width, dst.width);
  const int n = x_end - x_begin;
  if (n <= 0) return;
  const detail::KernelOps* ops = detail::kernel_ops();
  for (int y = y_begin; y < y_end; ++y) {
    const uint8_t* src_row = fg.row(y - dst_y) + (x_begin - dst_x);
    uint8_t* dst_row = dst.row(y) + x_begin;
    ops->blend_row(src_row, dst_row, n, alpha256);
  }
}

uint64_t blend_cycles(int fg_width, int fg_rows) {
  // Two multiplies, add, shift per pixel.
  return static_cast<uint64_t>(fg_width) * fg_rows * 4;
}

// ---- fused downscale + blend -------------------------------------------------

void downscale_blend(ConstPlaneView src, PlaneView dst, int factor, int dst_x,
                     int dst_y, int alpha256, int row0, int row1) {
  // Same preconditions as the unfused pair, so fused and unfused paths
  // fail identically on bad wiring.
  SUP_CHECK(factor >= 1);
  SUP_CHECK(alpha256 >= 0 && alpha256 <= 256);
  const int out_w = src.width / factor;
  const int out_h = src.height / factor;
  SUP_CHECK(src.width >= out_w * factor);
  SUP_CHECK(src.height >= out_h * factor);
  int y_begin = std::max({row0, dst_y, 0});
  int y_end = std::min({row1, dst_y + out_h, dst.height});
  int x_begin = std::max(dst_x, 0);
  int x_end = std::min(dst_x + out_w, dst.width);
  if (x_end <= x_begin) return;
  const int n = x_end - x_begin;
  const detail::KernelOps* ops = detail::kernel_ops();
  if (factor == 1) {
    for (int y = y_begin; y < y_end; ++y)
      ops->blend_row(src.row(y - dst_y) + (x_begin - dst_x),
                     dst.row(y) + x_begin, n, alpha256);
    return;
  }
  if (factor == 2) {
    for (int y = y_begin; y < y_end; ++y) {
      const int sy = (y - dst_y) * 2;
      ops->down2_blend_row(src.row(sy) + (x_begin - dst_x) * 2,
                           src.row(sy + 1) + (x_begin - dst_x) * 2,
                           dst.row(y) + x_begin, n, alpha256);
    }
    return;
  }
  for (int y = y_begin; y < y_end; ++y) {
    uint8_t* dst_row = dst.row(y);
    const uint8_t* top = src.row((y - dst_y) * factor);
    for (int x = x_begin; x < x_end; ++x) {
      uint8_t v = box_average_rows(top + (x - dst_x) * factor, src.stride,
                                   factor);
      dst_row[x] = mix(v, dst_row[x], alpha256);
    }
  }
}

uint64_t downscale_blend_cycles(int out_width, int out_rows, int factor) {
  // Same arithmetic as the two kernels minus the intermediate store/load,
  // which the cache model accounts for separately.
  return downscale_cycles(out_width, out_rows, factor) +
         blend_cycles(out_width, out_rows);
}

// ---- Gaussian blur ------------------------------------------------------------

const int16_t* gaussian_taps(int kernel_size) {
  SUP_CHECK_MSG(kernel_size == 3 || kernel_size == 5,
                "only 3x3 and 5x5 Gaussian kernels are provided");
  return kernel_size == 3 ? detail::kBlurTaps3 : detail::kBlurTaps5;
}

void blur_h(ConstPlaneView src, PlaneView dst, int kernel_size, int row0,
            int row1) {
  SUP_CHECK(src.width == dst.width && src.height == dst.height);
  const int16_t* taps = gaussian_taps(kernel_size);
  const int r = kernel_size / 2;
  row0 = clampi(row0, 0, dst.height);
  row1 = clampi(row1, 0, dst.height);
  const int w = dst.width;
  const detail::KernelOps* ops = detail::kernel_ops();
  for (int y = row0; y < row1; ++y) {
    const uint8_t* in = src.row(y);
    uint8_t* out = dst.row(y);
    if (w <= 2 * r) {  // degenerate: every column is a border column
      blur_h_border(in, out, 0, w, taps, r, w);
    } else if (kernel_size == 3) {
      blur_h_border(in, out, 0, 1, taps, r, w);
      ops->blur_h3_row(in, out, w);
      blur_h_border(in, out, w - 1, w, taps, r, w);
    } else {
      blur_h_border(in, out, 0, 2, taps, r, w);
      ops->blur_h5_row(in, out, w);
      blur_h_border(in, out, w - 2, w, taps, r, w);
    }
  }
}

void blur_v(ConstPlaneView src, PlaneView dst, int kernel_size, int row0,
            int row1) {
  SUP_CHECK(src.width == dst.width && src.height == dst.height);
  (void)gaussian_taps(kernel_size);  // validates kernel_size
  row0 = clampi(row0, 0, dst.height);
  row1 = clampi(row1, 0, dst.height);
  const int w = dst.width;
  const int hmax = src.height - 1;
  const detail::KernelOps* ops = detail::kernel_ops();
  // Row pointers are clamped once per output row (border rows reuse the
  // edge row), so the per-pixel loop is clamp-free for every row.
  if (kernel_size == 3) {
    for (int y = row0; y < row1; ++y)
      ops->blur_v3_row(src.row(clampi(y - 1, 0, hmax)), src.row(y),
                       src.row(clampi(y + 1, 0, hmax)), dst.row(y), w);
    return;
  }
  for (int y = row0; y < row1; ++y)
    ops->blur_v5_row(src.row(clampi(y - 2, 0, hmax)),
                     src.row(clampi(y - 1, 0, hmax)), src.row(y),
                     src.row(clampi(y + 1, 0, hmax)),
                     src.row(clampi(y + 2, 0, hmax)), dst.row(y), w);
}

uint64_t blur_cycles(int width, int rows, int kernel_size) {
  // kernel_size multiply-accumulates + clamp/shift per pixel.
  uint64_t per_pixel = static_cast<uint64_t>(kernel_size) * 2 + 2;
  return static_cast<uint64_t>(width) * rows * per_pixel;
}

}  // namespace media
