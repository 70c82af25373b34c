// NEON (AArch64) tier of the media kernel dispatch table.
//
// Byte kernels only: widen u8 -> u16, do the exact fixed-point
// arithmetic of the scalar reference in 16-bit lanes (every accumulator
// is proven <= 65408, so u16 never wraps), shift and narrow back. The
// IDCT stays on the scalar implementation; the AVX2 TU documents what an
// exact vector AAN needs. Internal linkage throughout, same ODR rules as
// the AVX2 TU.
#include "media/kernels_simd.hpp"

#if defined(__aarch64__) || defined(__ARM_NEON)

#include <arm_neon.h>

namespace media::detail {
namespace {

inline uint8_t mix1(uint8_t fg, uint8_t bg, int alpha256) {
  return static_cast<uint8_t>(
      (fg * alpha256 + bg * (256 - alpha256) + 128) >> 8);
}

// 3-tap accumulate on one widened u16 half.
inline uint16x8_t blur3_half(uint16x8_t a, uint16x8_t b, uint16x8_t c) {
  uint16x8_t acc = vdupq_n_u16(128);
  acc = vmlaq_n_u16(acc, vaddq_u16(a, c),
                    static_cast<uint16_t>(kBlurTaps3[0]));
  return vmlaq_n_u16(acc, b, static_cast<uint16_t>(kBlurTaps3[1]));
}

inline uint16x8_t blur5_half(uint16x8_t a, uint16x8_t b, uint16x8_t c,
                             uint16x8_t d, uint16x8_t e) {
  uint16x8_t acc = vdupq_n_u16(128);
  acc = vmlaq_n_u16(acc, vaddq_u16(a, e),
                    static_cast<uint16_t>(kBlurTaps5[0]));
  acc = vmlaq_n_u16(acc, vaddq_u16(b, d),
                    static_cast<uint16_t>(kBlurTaps5[1]));
  return vmlaq_n_u16(acc, c, static_cast<uint16_t>(kBlurTaps5[2]));
}

void blur_h3_row(const uint8_t* in, uint8_t* out, int w) {
  int x = 1;
  for (; x + 16 <= w - 1; x += 16) {
    uint8x16_t l = vld1q_u8(in + x - 1);
    uint8x16_t c = vld1q_u8(in + x);
    uint8x16_t r = vld1q_u8(in + x + 1);
    uint16x8_t lo = blur3_half(vmovl_u8(vget_low_u8(l)),
                               vmovl_u8(vget_low_u8(c)),
                               vmovl_u8(vget_low_u8(r)));
    uint16x8_t hi = blur3_half(vmovl_u8(vget_high_u8(l)),
                               vmovl_u8(vget_high_u8(c)),
                               vmovl_u8(vget_high_u8(r)));
    vst1q_u8(out + x, vcombine_u8(vshrn_n_u16(lo, 8), vshrn_n_u16(hi, 8)));
  }
  for (; x < w - 1; ++x) {
    int acc = 128 + kBlurTaps3[0] * in[x - 1] + kBlurTaps3[1] * in[x] +
              kBlurTaps3[2] * in[x + 1];
    out[x] = static_cast<uint8_t>(acc >> 8);
  }
}

void blur_h5_row(const uint8_t* in, uint8_t* out, int w) {
  int x = 2;
  for (; x + 16 <= w - 2; x += 16) {
    uint8x16_t a = vld1q_u8(in + x - 2);
    uint8x16_t b = vld1q_u8(in + x - 1);
    uint8x16_t c = vld1q_u8(in + x);
    uint8x16_t d = vld1q_u8(in + x + 1);
    uint8x16_t e = vld1q_u8(in + x + 2);
    uint16x8_t lo = blur5_half(
        vmovl_u8(vget_low_u8(a)), vmovl_u8(vget_low_u8(b)),
        vmovl_u8(vget_low_u8(c)), vmovl_u8(vget_low_u8(d)),
        vmovl_u8(vget_low_u8(e)));
    uint16x8_t hi = blur5_half(
        vmovl_u8(vget_high_u8(a)), vmovl_u8(vget_high_u8(b)),
        vmovl_u8(vget_high_u8(c)), vmovl_u8(vget_high_u8(d)),
        vmovl_u8(vget_high_u8(e)));
    vst1q_u8(out + x, vcombine_u8(vshrn_n_u16(lo, 8), vshrn_n_u16(hi, 8)));
  }
  for (; x < w - 2; ++x) {
    int acc = 128 + kBlurTaps5[0] * in[x - 2] + kBlurTaps5[1] * in[x - 1] +
              kBlurTaps5[2] * in[x] + kBlurTaps5[3] * in[x + 1] +
              kBlurTaps5[4] * in[x + 2];
    out[x] = static_cast<uint8_t>(acc >> 8);
  }
}

void blur_v3_row(const uint8_t* ra, const uint8_t* rb, const uint8_t* rc,
                 uint8_t* out, int w) {
  int x = 0;
  for (; x + 16 <= w; x += 16) {
    uint8x16_t a = vld1q_u8(ra + x);
    uint8x16_t b = vld1q_u8(rb + x);
    uint8x16_t c = vld1q_u8(rc + x);
    uint16x8_t lo = blur3_half(vmovl_u8(vget_low_u8(a)),
                               vmovl_u8(vget_low_u8(b)),
                               vmovl_u8(vget_low_u8(c)));
    uint16x8_t hi = blur3_half(vmovl_u8(vget_high_u8(a)),
                               vmovl_u8(vget_high_u8(b)),
                               vmovl_u8(vget_high_u8(c)));
    vst1q_u8(out + x, vcombine_u8(vshrn_n_u16(lo, 8), vshrn_n_u16(hi, 8)));
  }
  for (; x < w; ++x) {
    int acc = 128 + kBlurTaps3[0] * ra[x] + kBlurTaps3[1] * rb[x] +
              kBlurTaps3[2] * rc[x];
    out[x] = static_cast<uint8_t>(acc >> 8);
  }
}

void blur_v5_row(const uint8_t* ra, const uint8_t* rb, const uint8_t* rc,
                 const uint8_t* rd, const uint8_t* re, uint8_t* out, int w) {
  int x = 0;
  for (; x + 16 <= w; x += 16) {
    uint8x16_t a = vld1q_u8(ra + x);
    uint8x16_t b = vld1q_u8(rb + x);
    uint8x16_t c = vld1q_u8(rc + x);
    uint8x16_t d = vld1q_u8(rd + x);
    uint8x16_t e = vld1q_u8(re + x);
    uint16x8_t lo = blur5_half(
        vmovl_u8(vget_low_u8(a)), vmovl_u8(vget_low_u8(b)),
        vmovl_u8(vget_low_u8(c)), vmovl_u8(vget_low_u8(d)),
        vmovl_u8(vget_low_u8(e)));
    uint16x8_t hi = blur5_half(
        vmovl_u8(vget_high_u8(a)), vmovl_u8(vget_high_u8(b)),
        vmovl_u8(vget_high_u8(c)), vmovl_u8(vget_high_u8(d)),
        vmovl_u8(vget_high_u8(e)));
    vst1q_u8(out + x, vcombine_u8(vshrn_n_u16(lo, 8), vshrn_n_u16(hi, 8)));
  }
  for (; x < w; ++x) {
    int acc = 128 + kBlurTaps5[0] * ra[x] + kBlurTaps5[1] * rb[x] +
              kBlurTaps5[2] * rc[x] + kBlurTaps5[3] * rd[x] +
              kBlurTaps5[4] * re[x];
    out[x] = static_cast<uint8_t>(acc >> 8);
  }
}

// Factor-2 box results for 8 outputs, left as u16 lanes.
inline uint16x8_t down2_u16(const uint8_t* a, const uint8_t* b) {
  uint16x8_t sa = vpaddlq_u8(vld1q_u8(a));
  uint16x8_t sb = vpaddlq_u8(vld1q_u8(b));
  return vshrq_n_u16(vaddq_u16(vaddq_u16(sa, sb), vdupq_n_u16(2)), 2);
}

void down2_row(const uint8_t* a, const uint8_t* b, uint8_t* out, int n) {
  int x = 0;
  for (; x + 16 <= n; x += 16) {
    uint16x8_t v0 = down2_u16(a + 2 * x, b + 2 * x);
    uint16x8_t v1 = down2_u16(a + 2 * x + 16, b + 2 * x + 16);
    vst1q_u8(out + x, vcombine_u8(vmovn_u16(v0), vmovn_u16(v1)));
  }
  for (; x < n; ++x) {
    const uint8_t* pa = a + 2 * x;
    const uint8_t* pb = b + 2 * x;
    unsigned sum = static_cast<unsigned>(pa[0]) + pa[1] + pb[0] + pb[1];
    out[x] = static_cast<uint8_t>((sum + 2) >> 2);
  }
}

// Sums of 4 consecutive bytes per u32 lane for one source row.
inline uint32x4_t quad_sums_u32(const uint8_t* r) {
  return vpaddlq_u16(vpaddlq_u8(vld1q_u8(r)));
}

void down4_row(const uint8_t* r0, const uint8_t* r1, const uint8_t* r2,
               const uint8_t* r3, uint8_t* out, int n) {
  int x = 0;
  for (; x + 8 <= n; x += 8) {
    uint32x4_t t0 = vaddq_u32(
        vaddq_u32(quad_sums_u32(r0 + 4 * x), quad_sums_u32(r1 + 4 * x)),
        vaddq_u32(quad_sums_u32(r2 + 4 * x), quad_sums_u32(r3 + 4 * x)));
    uint32x4_t t1 = vaddq_u32(
        vaddq_u32(quad_sums_u32(r0 + 4 * x + 16),
                  quad_sums_u32(r1 + 4 * x + 16)),
        vaddq_u32(quad_sums_u32(r2 + 4 * x + 16),
                  quad_sums_u32(r3 + 4 * x + 16)));
    const uint32x4_t rnd = vdupq_n_u32(8);
    t0 = vshrq_n_u32(vaddq_u32(t0, rnd), 4);
    t1 = vshrq_n_u32(vaddq_u32(t1, rnd), 4);
    uint16x8_t p = vcombine_u16(vmovn_u32(t0), vmovn_u32(t1));
    vst1_u8(out + x, vmovn_u16(p));
  }
  for (; x < n; ++x) {
    unsigned sum = 0;
    for (int i = 0; i < 4; ++i)
      sum += static_cast<unsigned>(r0[4 * x + i]) + r1[4 * x + i] +
             r2[4 * x + i] + r3[4 * x + i];
    out[x] = static_cast<uint8_t>((sum + 8) >> 4);
  }
}

// (v*alpha + d*(256-alpha) + 128) >> 8 on u16 lanes (max 65408, no wrap).
inline uint16x8_t mix_u16(uint16x8_t v, uint16x8_t d, uint16_t va,
                          uint16_t vb) {
  uint16x8_t acc = vdupq_n_u16(128);
  acc = vmlaq_n_u16(acc, v, va);
  acc = vmlaq_n_u16(acc, d, vb);
  return vshrq_n_u16(acc, 8);
}

void blend_row(const uint8_t* src, uint8_t* dst, int n, int alpha256) {
  const uint16_t va = static_cast<uint16_t>(alpha256);
  const uint16_t vb = static_cast<uint16_t>(256 - alpha256);
  int x = 0;
  for (; x + 16 <= n; x += 16) {
    uint8x16_t s = vld1q_u8(src + x);
    uint8x16_t d = vld1q_u8(dst + x);
    uint16x8_t lo = mix_u16(vmovl_u8(vget_low_u8(s)),
                            vmovl_u8(vget_low_u8(d)), va, vb);
    uint16x8_t hi = mix_u16(vmovl_u8(vget_high_u8(s)),
                            vmovl_u8(vget_high_u8(d)), va, vb);
    vst1q_u8(dst + x, vcombine_u8(vmovn_u16(lo), vmovn_u16(hi)));
  }
  for (; x < n; ++x) dst[x] = mix1(src[x], dst[x], alpha256);
}

void down2_blend_row(const uint8_t* a, const uint8_t* b, uint8_t* dst, int n,
                     int alpha256) {
  const uint16_t va = static_cast<uint16_t>(alpha256);
  const uint16_t vb = static_cast<uint16_t>(256 - alpha256);
  int x = 0;
  for (; x + 16 <= n; x += 16) {
    uint16x8_t v0 = down2_u16(a + 2 * x, b + 2 * x);
    uint16x8_t v1 = down2_u16(a + 2 * x + 16, b + 2 * x + 16);
    uint8x16_t d = vld1q_u8(dst + x);
    uint16x8_t lo = mix_u16(v0, vmovl_u8(vget_low_u8(d)), va, vb);
    uint16x8_t hi = mix_u16(v1, vmovl_u8(vget_high_u8(d)), va, vb);
    vst1q_u8(dst + x, vcombine_u8(vmovn_u16(lo), vmovn_u16(hi)));
  }
  for (; x < n; ++x) {
    const uint8_t* pa = a + 2 * x;
    const uint8_t* pb = b + 2 * x;
    unsigned sum = static_cast<unsigned>(pa[0]) + pa[1] + pb[0] + pb[1];
    dst[x] = mix1(static_cast<uint8_t>((sum + 2) >> 2), dst[x], alpha256);
  }
}

const KernelOps kNeonOps = {
    KernelDispatch::kNeon,
    "neon",
    &blur_h3_row,
    &blur_h5_row,
    &blur_v3_row,
    &blur_v5_row,
    &down2_row,
    &down4_row,
    &blend_row,
    &down2_blend_row,
    &idct8x8_scalar,
};

}  // namespace

const KernelOps* neon_ops() { return &kNeonOps; }

}  // namespace media::detail

#else  // !NEON

namespace media::detail {
const KernelOps* neon_ops() { return nullptr; }
}  // namespace media::detail

#endif
