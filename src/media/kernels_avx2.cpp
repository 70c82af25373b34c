// AVX2 tier of the media kernel dispatch table (kernels_simd.hpp).
//
// Byte kernels: widen u8 -> u16 with per-lane unpacks, do the exact
// fixed-point arithmetic of the scalar reference in 16-bit lanes (every
// accumulator is proven <= 65408, so u16 never wraps), shift, and pack
// back with the mirrored per-lane pack so byte order is preserved
// without cross-lane shuffles.
//
// IDCT: the full fixed-point AAN flowgraph in int32 lanes, one lane per
// column (pass 1) / per row (pass 2, after an 8x8 transpose). aan_mul is
// exact: 64-bit products via even/odd _mm256_mul_epi32, the same
// round-and-arithmetic-shift as the scalar aan_mul, reassembled into
// int32 lanes. Interval analysis over the flowgraph bounds every
// intermediate by 40.3 * maxcoef * 31521, which stays inside int32 up to
// |coef| = kSimdIdctMaxCoef; larger (crafted) blocks fall back to
// idct8x8_scalar, so the tier is bit-exact for every input.
//
// This TU is compiled with -mavx2 (src/media/CMakeLists.txt); everything
// is internal-linkage so no AVX2-encoded symbol can leak to baseline TUs.
#include "media/kernels_simd.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace media::detail {
namespace {

inline uint8_t mix1(uint8_t fg, uint8_t bg, int alpha256) {
  return static_cast<uint8_t>(
      (fg * alpha256 + bg * (256 - alpha256) + 128) >> 8);
}

inline __m256i load256(const uint8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store256(uint8_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// ---- Gaussian blur ---------------------------------------------------------

// 3-tap accumulate on one u16 half (lo or hi unpack of the three taps).
inline __m256i blur3_half(__m256i a, __m256i b, __m256i c, __m256i t0,
                          __m256i t1) {
  return _mm256_add_epi16(
      _mm256_set1_epi16(128),
      _mm256_add_epi16(_mm256_mullo_epi16(_mm256_add_epi16(a, c), t0),
                       _mm256_mullo_epi16(b, t1)));
}

inline __m256i blur5_half(__m256i a, __m256i b, __m256i c, __m256i d,
                          __m256i e, __m256i t0, __m256i t1, __m256i t2) {
  return _mm256_add_epi16(
      _mm256_set1_epi16(128),
      _mm256_add_epi16(
          _mm256_add_epi16(_mm256_mullo_epi16(_mm256_add_epi16(a, e), t0),
                           _mm256_mullo_epi16(_mm256_add_epi16(b, d), t1)),
          _mm256_mullo_epi16(c, t2)));
}

void blur_h3_row(const uint8_t* in, uint8_t* out, int w) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i t0 = _mm256_set1_epi16(kBlurTaps3[0]);
  const __m256i t1 = _mm256_set1_epi16(kBlurTaps3[1]);
  int x = 1;
  for (; x + 32 <= w - 1; x += 32) {
    __m256i l = load256(in + x - 1);
    __m256i c = load256(in + x);
    __m256i r = load256(in + x + 1);
    __m256i lo = blur3_half(_mm256_unpacklo_epi8(l, zero),
                            _mm256_unpacklo_epi8(c, zero),
                            _mm256_unpacklo_epi8(r, zero), t0, t1);
    __m256i hi = blur3_half(_mm256_unpackhi_epi8(l, zero),
                            _mm256_unpackhi_epi8(c, zero),
                            _mm256_unpackhi_epi8(r, zero), t0, t1);
    store256(out + x, _mm256_packus_epi16(_mm256_srli_epi16(lo, 8),
                                          _mm256_srli_epi16(hi, 8)));
  }
  for (; x < w - 1; ++x) {
    int acc = 128 + kBlurTaps3[0] * in[x - 1] + kBlurTaps3[1] * in[x] +
              kBlurTaps3[2] * in[x + 1];
    out[x] = static_cast<uint8_t>(acc >> 8);
  }
}

void blur_h5_row(const uint8_t* in, uint8_t* out, int w) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i t0 = _mm256_set1_epi16(kBlurTaps5[0]);
  const __m256i t1 = _mm256_set1_epi16(kBlurTaps5[1]);
  const __m256i t2 = _mm256_set1_epi16(kBlurTaps5[2]);
  int x = 2;
  for (; x + 32 <= w - 2; x += 32) {
    __m256i a = load256(in + x - 2);
    __m256i b = load256(in + x - 1);
    __m256i c = load256(in + x);
    __m256i d = load256(in + x + 1);
    __m256i e = load256(in + x + 2);
    __m256i lo = blur5_half(
        _mm256_unpacklo_epi8(a, zero), _mm256_unpacklo_epi8(b, zero),
        _mm256_unpacklo_epi8(c, zero), _mm256_unpacklo_epi8(d, zero),
        _mm256_unpacklo_epi8(e, zero), t0, t1, t2);
    __m256i hi = blur5_half(
        _mm256_unpackhi_epi8(a, zero), _mm256_unpackhi_epi8(b, zero),
        _mm256_unpackhi_epi8(c, zero), _mm256_unpackhi_epi8(d, zero),
        _mm256_unpackhi_epi8(e, zero), t0, t1, t2);
    store256(out + x, _mm256_packus_epi16(_mm256_srli_epi16(lo, 8),
                                          _mm256_srli_epi16(hi, 8)));
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
  const __m256i zero = _mm256_setzero_si256();
  const __m256i t0 = _mm256_set1_epi16(kBlurTaps3[0]);
  const __m256i t1 = _mm256_set1_epi16(kBlurTaps3[1]);
  int x = 0;
  for (; x + 32 <= w; x += 32) {
    __m256i a = load256(ra + x);
    __m256i b = load256(rb + x);
    __m256i c = load256(rc + x);
    __m256i lo = blur3_half(_mm256_unpacklo_epi8(a, zero),
                            _mm256_unpacklo_epi8(b, zero),
                            _mm256_unpacklo_epi8(c, zero), t0, t1);
    __m256i hi = blur3_half(_mm256_unpackhi_epi8(a, zero),
                            _mm256_unpackhi_epi8(b, zero),
                            _mm256_unpackhi_epi8(c, zero), t0, t1);
    store256(out + x, _mm256_packus_epi16(_mm256_srli_epi16(lo, 8),
                                          _mm256_srli_epi16(hi, 8)));
  }
  for (; x < w; ++x) {
    int acc = 128 + kBlurTaps3[0] * ra[x] + kBlurTaps3[1] * rb[x] +
              kBlurTaps3[2] * rc[x];
    out[x] = static_cast<uint8_t>(acc >> 8);
  }
}

void blur_v5_row(const uint8_t* ra, const uint8_t* rb, const uint8_t* rc,
                 const uint8_t* rd, const uint8_t* re, uint8_t* out, int w) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i t0 = _mm256_set1_epi16(kBlurTaps5[0]);
  const __m256i t1 = _mm256_set1_epi16(kBlurTaps5[1]);
  const __m256i t2 = _mm256_set1_epi16(kBlurTaps5[2]);
  int x = 0;
  for (; x + 32 <= w; x += 32) {
    __m256i a = load256(ra + x);
    __m256i b = load256(rb + x);
    __m256i c = load256(rc + x);
    __m256i d = load256(rd + x);
    __m256i e = load256(re + x);
    __m256i lo = blur5_half(
        _mm256_unpacklo_epi8(a, zero), _mm256_unpacklo_epi8(b, zero),
        _mm256_unpacklo_epi8(c, zero), _mm256_unpacklo_epi8(d, zero),
        _mm256_unpacklo_epi8(e, zero), t0, t1, t2);
    __m256i hi = blur5_half(
        _mm256_unpackhi_epi8(a, zero), _mm256_unpackhi_epi8(b, zero),
        _mm256_unpackhi_epi8(c, zero), _mm256_unpackhi_epi8(d, zero),
        _mm256_unpackhi_epi8(e, zero), t0, t1, t2);
    store256(out + x, _mm256_packus_epi16(_mm256_srli_epi16(lo, 8),
                                          _mm256_srli_epi16(hi, 8)));
  }
  for (; x < w; ++x) {
    int acc = 128 + kBlurTaps5[0] * ra[x] + kBlurTaps5[1] * rb[x] +
              kBlurTaps5[2] * rc[x] + kBlurTaps5[3] * rd[x] +
              kBlurTaps5[4] * re[x];
    out[x] = static_cast<uint8_t>(acc >> 8);
  }
}

// ---- downscale / blend -----------------------------------------------------

// Horizontal pair sums of 32 bytes as 16 u16 lanes.
inline __m256i pair_sums_u16(__m256i v) {
  const __m256i mask = _mm256_set1_epi16(0x00ff);
  return _mm256_add_epi16(_mm256_and_si256(v, mask), _mm256_srli_epi16(v, 8));
}

// Factor-2 box results for 16 outputs, left as u16 lanes.
inline __m256i down2_u16(const uint8_t* a, const uint8_t* b) {
  __m256i sum = _mm256_add_epi16(
      _mm256_add_epi16(pair_sums_u16(load256(a)), pair_sums_u16(load256(b))),
      _mm256_set1_epi16(2));
  return _mm256_srli_epi16(sum, 2);
}

void down2_row(const uint8_t* a, const uint8_t* b, uint8_t* out, int n) {
  int x = 0;
  for (; x + 32 <= n; x += 32) {
    __m256i v0 = down2_u16(a + 2 * x, b + 2 * x);
    __m256i v1 = down2_u16(a + 2 * x + 32, b + 2 * x + 32);
    // Per-lane pack interleaves the two halves; one cross-lane permute
    // restores byte order.
    __m256i p = _mm256_packus_epi16(v0, v1);
    store256(out + x, _mm256_permute4x64_epi64(p, 0xd8));
  }
  for (; x < n; ++x) {
    const uint8_t* pa = a + 2 * x;
    const uint8_t* pb = b + 2 * x;
    unsigned sum = static_cast<unsigned>(pa[0]) + pa[1] + pb[0] + pb[1];
    out[x] = static_cast<uint8_t>((sum + 2) >> 2);
  }
}

// Sums of 4 consecutive bytes per int32 lane (8 lanes from 32 bytes).
inline __m256i quad_sums_i32(const uint8_t* r) {
  return _mm256_madd_epi16(pair_sums_u16(load256(r)), _mm256_set1_epi16(1));
}

void down4_row(const uint8_t* r0, const uint8_t* r1, const uint8_t* r2,
               const uint8_t* r3, uint8_t* out, int n) {
  int x = 0;
  for (; x + 8 <= n; x += 8) {
    __m256i t = _mm256_add_epi32(
        _mm256_add_epi32(quad_sums_i32(r0 + 4 * x), quad_sums_i32(r1 + 4 * x)),
        _mm256_add_epi32(quad_sums_i32(r2 + 4 * x),
                         quad_sums_i32(r3 + 4 * x)));
    t = _mm256_srli_epi32(_mm256_add_epi32(t, _mm256_set1_epi32(8)), 4);
    __m128i p = _mm_packs_epi32(_mm256_castsi256_si128(t),
                                _mm256_extracti128_si256(t, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + x),
                     _mm_packus_epi16(p, _mm_setzero_si128()));
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
inline __m256i mix_u16(__m256i v, __m256i d, __m256i va, __m256i vb) {
  __m256i acc = _mm256_add_epi16(
      _mm256_add_epi16(_mm256_mullo_epi16(v, va), _mm256_mullo_epi16(d, vb)),
      _mm256_set1_epi16(128));
  return _mm256_srli_epi16(acc, 8);
}

void blend_row(const uint8_t* src, uint8_t* dst, int n, int alpha256) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i va = _mm256_set1_epi16(static_cast<short>(alpha256));
  const __m256i vb = _mm256_set1_epi16(static_cast<short>(256 - alpha256));
  int x = 0;
  for (; x + 32 <= n; x += 32) {
    __m256i s = load256(src + x);
    __m256i d = load256(dst + x);
    __m256i lo = mix_u16(_mm256_unpacklo_epi8(s, zero),
                         _mm256_unpacklo_epi8(d, zero), va, vb);
    __m256i hi = mix_u16(_mm256_unpackhi_epi8(s, zero),
                         _mm256_unpackhi_epi8(d, zero), va, vb);
    store256(dst + x, _mm256_packus_epi16(lo, hi));
  }
  for (; x < n; ++x) dst[x] = mix1(src[x], dst[x], alpha256);
}

void down2_blend_row(const uint8_t* a, const uint8_t* b, uint8_t* dst, int n,
                     int alpha256) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i va = _mm256_set1_epi16(static_cast<short>(alpha256));
  const __m256i vb = _mm256_set1_epi16(static_cast<short>(256 - alpha256));
  int x = 0;
  for (; x + 32 <= n; x += 32) {
    __m256i v0 = down2_u16(a + 2 * x, b + 2 * x);          // outputs 0..15
    __m256i v1 = down2_u16(a + 2 * x + 32, b + 2 * x + 32);  // outputs 16..31
    // Match the per-lane unpack layout of dst: lo = outputs [0-7 | 16-23],
    // hi = outputs [8-15 | 24-31].
    __m256i vlo = _mm256_permute2x128_si256(v0, v1, 0x20);
    __m256i vhi = _mm256_permute2x128_si256(v0, v1, 0x31);
    __m256i d = load256(dst + x);
    __m256i lo = mix_u16(vlo, _mm256_unpacklo_epi8(d, zero), va, vb);
    __m256i hi = mix_u16(vhi, _mm256_unpackhi_epi8(d, zero), va, vb);
    store256(dst + x, _mm256_packus_epi16(lo, hi));
  }
  for (; x < n; ++x) {
    const uint8_t* pa = a + 2 * x;
    const uint8_t* pb = b + 2 * x;
    unsigned sum = static_cast<unsigned>(pa[0]) + pa[1] + pb[0] + pb[1];
    dst[x] = mix1(static_cast<uint8_t>((sum + 2) >> 2), dst[x], alpha256);
  }
}

// ---- fixed-point AAN IDCT --------------------------------------------------

// Exact vector counterpart of the scalar aan_mul: per int32 lane,
// (x * k + 2^13) >> 14 with 64-bit products and arithmetic shift.
// AVX2 has no srai_epi64; instead of emulating the sign extension, bias
// each 64-bit sum by 2^48 so it is non-negative (|x*k| < 2^31 * 2^16 =
// 2^47 for every int32 lane) and shift logically. The bias contributes
// 2^48 >> 14 = 2^34 ≡ 0 (mod 2^32), so the low-32-bit reassembly below
// is untouched and the result stays bit-identical to the scalar helper.
inline __m256i aan_mul_v(__m256i x, int32_t k) {
  const __m256i vk = _mm256_set1_epi32(k);
  const __m256i rnd =
      _mm256_set1_epi64x((int64_t{1} << 48) + (1 << (kAanConstBits - 1)));
  __m256i pe = _mm256_srli_epi64(
      _mm256_add_epi64(_mm256_mul_epi32(x, vk), rnd), kAanConstBits);
  __m256i po = _mm256_srli_epi64(
      _mm256_add_epi64(_mm256_mul_epi32(_mm256_srli_epi64(x, 32), vk), rnd),
      kAanConstBits);
  return _mm256_blend_epi32(pe, _mm256_slli_epi64(po, 32), 0xaa);
}

// One AAN 1-D inverse pass on eight int32 vectors, lanewise — the exact
// flowgraph of the scalar aan_pass (jpeg_decode.cpp), in flowgraph order
// r[0..7] = frequencies in, spatial samples out.
inline void aan_pass_v(__m256i r[8]) {
  // Even part.
  __m256i tmp10 = _mm256_add_epi32(r[0], r[4]);
  __m256i tmp11 = _mm256_sub_epi32(r[0], r[4]);
  __m256i tmp13 = _mm256_add_epi32(r[2], r[6]);
  __m256i tmp12 = _mm256_sub_epi32(
      aan_mul_v(_mm256_sub_epi32(r[2], r[6]), kFix1_414213562), tmp13);
  __m256i e0 = _mm256_add_epi32(tmp10, tmp13);
  __m256i e3 = _mm256_sub_epi32(tmp10, tmp13);
  __m256i e1 = _mm256_add_epi32(tmp11, tmp12);
  __m256i e2 = _mm256_sub_epi32(tmp11, tmp12);

  // Odd part.
  __m256i z13 = _mm256_add_epi32(r[5], r[3]);
  __m256i z10 = _mm256_sub_epi32(r[5], r[3]);
  __m256i z11 = _mm256_add_epi32(r[1], r[7]);
  __m256i z12 = _mm256_sub_epi32(r[1], r[7]);
  __m256i o7 = _mm256_add_epi32(z11, z13);
  __m256i t11 = aan_mul_v(_mm256_sub_epi32(z11, z13), kFix1_414213562);
  __m256i z5 = aan_mul_v(_mm256_add_epi32(z10, z12), kFix1_847759065);
  __m256i t10 = _mm256_sub_epi32(aan_mul_v(z12, kFix1_082392200), z5);
  __m256i t12 = _mm256_sub_epi32(z5, aan_mul_v(z10, kFix2_613125930));
  __m256i o6 = _mm256_sub_epi32(t12, o7);
  __m256i o5 = _mm256_sub_epi32(t11, o6);
  __m256i o4 = _mm256_add_epi32(t10, o5);

  r[0] = _mm256_add_epi32(e0, o7);
  r[7] = _mm256_sub_epi32(e0, o7);
  r[1] = _mm256_add_epi32(e1, o6);
  r[6] = _mm256_sub_epi32(e1, o6);
  r[2] = _mm256_add_epi32(e2, o5);
  r[5] = _mm256_sub_epi32(e2, o5);
  r[4] = _mm256_add_epi32(e3, o4);
  r[3] = _mm256_sub_epi32(e3, o4);
}

// Pass-1 shortcut for blocks whose coefficient rows 4-7 are all zero —
// true for every chroma block and roughly half the luma blocks of
// typical streams, since low zigzag indices live in the top-left rows.
// Each elided operation is an addition or subtraction of an exact zero,
// and every aan_mul sees the same operand value as the full flowgraph
// (z11 - z13 and z10 + z12 both collapse to r1 - r3), so the outputs
// are bit-identical to aan_pass_v on the same block. Reads r[0..3]
// only; writes r[0..7].
inline void aan_pass_v_top4(__m256i r[8]) {
  // Even part (r4 = r6 = 0): tmp10 = tmp11 = r0, tmp13 = r2.
  __m256i tmp12 =
      _mm256_sub_epi32(aan_mul_v(r[2], kFix1_414213562), r[2]);
  __m256i e0 = _mm256_add_epi32(r[0], r[2]);
  __m256i e3 = _mm256_sub_epi32(r[0], r[2]);
  __m256i e1 = _mm256_add_epi32(r[0], tmp12);
  __m256i e2 = _mm256_sub_epi32(r[0], tmp12);

  // Odd part (r5 = r7 = 0): z13 = r3, z10 = -r3, z11 = z12 = r1.
  __m256i d = _mm256_sub_epi32(r[1], r[3]);
  __m256i o7 = _mm256_add_epi32(r[1], r[3]);
  __m256i t11 = aan_mul_v(d, kFix1_414213562);
  __m256i z5 = aan_mul_v(d, kFix1_847759065);
  __m256i t10 = _mm256_sub_epi32(aan_mul_v(r[1], kFix1_082392200), z5);
  __m256i t12 = _mm256_sub_epi32(
      z5, aan_mul_v(_mm256_sub_epi32(_mm256_setzero_si256(), r[3]),
                    kFix2_613125930));
  __m256i o6 = _mm256_sub_epi32(t12, o7);
  __m256i o5 = _mm256_sub_epi32(t11, o6);
  __m256i o4 = _mm256_add_epi32(t10, o5);

  r[0] = _mm256_add_epi32(e0, o7);
  r[7] = _mm256_sub_epi32(e0, o7);
  r[1] = _mm256_add_epi32(e1, o6);
  r[6] = _mm256_sub_epi32(e1, o6);
  r[2] = _mm256_add_epi32(e2, o5);
  r[5] = _mm256_sub_epi32(e2, o5);
  r[4] = _mm256_add_epi32(e3, o4);
  r[3] = _mm256_sub_epi32(e3, o4);
}

inline void transpose8x8_i32(__m256i r[8]) {
  __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
  __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
  __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
  __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
  __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
  __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
  __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
  __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);
  __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  r[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
  r[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
  r[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
  r[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
  r[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
  r[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
  r[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
  r[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

void idct8x8(const int16_t in[64], const int32_t prescale[64],
             uint8_t* out, int stride) {
  // Overflow guard: blocks with |coef| > kSimdIdctMaxCoef (never reached
  // by real 8-bit baseline streams) take the scalar path, keeping the
  // vector tier bit-exact for arbitrary crafted input.
  const __m256i* cin = reinterpret_cast<const __m256i*>(in);
  const __m256i c0 = _mm256_loadu_si256(cin);      // rows 0-1
  const __m256i c1 = _mm256_loadu_si256(cin + 1);  // rows 2-3
  const __m256i c2 = _mm256_loadu_si256(cin + 2);  // rows 4-5
  const __m256i c3 = _mm256_loadu_si256(cin + 3);  // rows 6-7
  __m256i mx = _mm256_max_epu16(
      _mm256_max_epu16(_mm256_abs_epi16(c0), _mm256_abs_epi16(c1)),
      _mm256_max_epu16(_mm256_abs_epi16(c2), _mm256_abs_epi16(c3)));
  __m128i m = _mm_max_epu16(_mm256_castsi256_si128(mx),
                            _mm256_extracti128_si256(mx, 1));
  m = _mm_max_epu16(m, _mm_srli_si128(m, 8));
  m = _mm_max_epu16(m, _mm_srli_si128(m, 4));
  m = _mm_max_epu16(m, _mm_srli_si128(m, 2));
  if (_mm_extract_epi16(m, 0) > kSimdIdctMaxCoef) {
    idct8x8_scalar(in, prescale, out, stride);
    return;
  }

  // Pass 1 over columns: vector index = flowgraph input, lane = column.
  // (The scalar all-AC-zero column shortcut is bit-identical to running
  // the full flowgraph — every aan_mul(0) is exactly 0 — so the vector
  // path simply always runs it.) Blocks with zero rows 4-7 skip those
  // dequant loads and take the elided-zero-term pass.
  const __m256i low = _mm256_or_si256(c2, c3);
  const bool top4 = _mm256_testz_si256(low, low) != 0;
  // (The column-sparse counterpart — elide pass-2 terms when coefficient
  // columns 4-7 are zero — measured neutral-to-slower here despite ~74%
  // eligibility: the kernel is bound by the transposes and loads/stores,
  // so the extra predicate only added a branch. Not worth the check.)
  __m256i r[8];
  const int nrows = top4 ? 4 : 8;
  for (int i = 0; i < nrows; ++i) {
    __m256i coef = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 8 * i)));
    __m256i mrow = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(prescale + 8 * i));
    r[i] = _mm256_mullo_epi32(coef, mrow);  // |coef*m| < 2^31: exact
  }
  if (top4) {
    aan_pass_v_top4(r);
  } else {
    aan_pass_v(r);
  }
  const __m256i rnd1 = _mm256_set1_epi32(1 << (kAanPass1Shift - 1));
  for (int i = 0; i < 8; ++i)
    r[i] = _mm256_srai_epi32(_mm256_add_epi32(r[i], rnd1), kAanPass1Shift);

  // Pass 2 over rows: transpose so lane = row, run the same flowgraph,
  // descale, level-shift.
  transpose8x8_i32(r);
  aan_pass_v(r);
  const __m256i rnd2 = _mm256_set1_epi32(1 << (kAanFinalShift - 1));
  const __m256i bias = _mm256_set1_epi32(128);
  for (int i = 0; i < 8; ++i)
    r[i] = _mm256_add_epi32(
        _mm256_srai_epi32(_mm256_add_epi32(r[i], rnd2), kAanFinalShift),
        bias);

  // Back to row-major and clamp: values fit int16, so the
  // packs_epi32 -> packus_epi16 double saturation equals the scalar
  // [0, 255] clamp. Rows go out 8 bytes at a time, `stride` apart.
  transpose8x8_i32(r);
  for (int i = 0; i < 8; i += 2) {
    __m128i a = _mm_packs_epi32(_mm256_castsi256_si128(r[i]),
                                _mm256_extracti128_si256(r[i], 1));
    __m128i b = _mm_packs_epi32(_mm256_castsi256_si128(r[i + 1]),
                                _mm256_extracti128_si256(r[i + 1], 1));
    __m128i px = _mm_packus_epi16(a, b);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i * stride), px);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + (i + 1) * stride),
                     _mm_unpackhi_epi64(px, px));
  }
}

const KernelOps kAvx2Ops = {
    KernelDispatch::kAvx2,
    &blur_h3_row,
    &blur_h5_row,
    &blur_v3_row,
    &blur_v5_row,
    &down2_row,
    &down4_row,
    &blend_row,
    &down2_blend_row,
    &idct8x8,
};

}  // namespace

const KernelOps* avx2_ops() { return &kAvx2Ops; }

}  // namespace media::detail

#else  // !__AVX2__

namespace media::detail {
const KernelOps* avx2_ops() { return nullptr; }
}  // namespace media::detail

#endif
