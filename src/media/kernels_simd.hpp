// Internal dispatch table behind media's runtime-selected kernel tiers.
//
// Each tier (scalar / AVX2) fills one KernelOps with row
// kernels for the interiors the public entry points in kernels.cpp carve
// out; borders and ragged vector tails always run the scalar
// formulation, so every tier is bit-identical by construction at the
// edges and must be proven bit-identical in the interior
// (tests/test_kernels_equiv.cpp sweeps ragged widths per tier).
//
// The AVX2 translation unit is compiled with a per-file instruction set
// flag (src/media/CMakeLists.txt) and keeps all its helpers at internal
// linkage: nothing inline-linked from here may be compiled
// under -mavx2, or the linker could pick an AVX2-encoded copy for a
// baseline host.
#pragma once

#include <cstdint>

#include "media/kernels.hpp"

namespace media::detail {

struct KernelOps {
  KernelDispatch tier;

  // Gaussian blur interiors. blur_h*: columns [r, w-r) of one row, the
  // caller handles the clamped borders. blur_v*: all `w` columns of one
  // output row given the (already clamped) neighbour row pointers.
  void (*blur_h3_row)(const uint8_t* in, uint8_t* out, int w);
  void (*blur_h5_row)(const uint8_t* in, uint8_t* out, int w);
  void (*blur_v3_row)(const uint8_t* ra, const uint8_t* rb,
                      const uint8_t* rc, uint8_t* out, int w);
  void (*blur_v5_row)(const uint8_t* ra, const uint8_t* rb,
                      const uint8_t* rc, const uint8_t* rd,
                      const uint8_t* re, uint8_t* out, int w);

  // Box downscale: n output pixels from 2n (resp. 4n) input pixels of
  // each source row.
  void (*down2_row)(const uint8_t* a, const uint8_t* b, uint8_t* out, int n);
  void (*down4_row)(const uint8_t* r0, const uint8_t* r1, const uint8_t* r2,
                    const uint8_t* r3, uint8_t* out, int n);

  // Alpha blend: dst[i] = (src[i]*alpha + dst[i]*(256-alpha) + 128) >> 8.
  void (*blend_row)(const uint8_t* src, uint8_t* dst, int n, int alpha256);

  // Fused factor-2 downscale + blend (no intermediate row).
  void (*down2_blend_row)(const uint8_t* a, const uint8_t* b, uint8_t* dst,
                          int n, int alpha256);

  // Fixed-point AAN IDCT of one 8x8 block, prescale multipliers supplied
  // by the caller (jpeg_decode.cpp owns the table). Writes eight 8-byte
  // rows `stride` bytes apart, so interior plane blocks decode in place
  // with no staging copy (stride = 8 for a packed 64-byte block).
  void (*idct8x8)(const int16_t in[64], const int32_t prescale[64],
                  uint8_t* out, int stride);
};

// Per-tier tables. scalar_ops() always exists; avx2_ops() returns nullptr
// when its translation unit was built without AVX2 (a non-x86 host).
const KernelOps* scalar_ops();
const KernelOps* avx2_ops();

// The table for the currently active dispatch policy (kernels.cpp).
const KernelOps* kernel_ops();

// Scalar fixed-point AAN IDCT (defined in jpeg_decode.cpp): the
// reference all vector idct8x8 implementations must match bit-for-bit,
// and their per-block fallback beyond kSimdIdctMaxCoef.
void idct8x8_scalar(const int16_t in[64], const int32_t prescale[64],
                    uint8_t* out, int stride);

// ---- shared fixed-point constants -----------------------------------------
// One definition for the scalar and vector AAN IDCTs, so exactness is a
// property of the flowgraph, not of which TU compiled it.

constexpr int kAanPrescaleBits = 14;
constexpr int kAanConstBits = 14;
constexpr int kAanPass1Shift = 5;   // pass-1 descale: 2^14 -> 2^9
constexpr int kAanFinalShift = 12;  // 2^9 * 8 (flowgraph gain) = 2^12

constexpr int32_t kFix1_414213562 = 23170;  // sqrt(2)          * 2^14
constexpr int32_t kFix1_847759065 = 30274;  // 2 cos(pi/8)      * 2^14
constexpr int32_t kFix1_082392200 = 17734;  // 2(cos(pi/8)-cos(3pi/8)) * 2^14
constexpr int32_t kFix2_613125930 = 42813;  // 2(cos(pi/8)+cos(3pi/8)) * 2^14

// Largest |coefficient| for which the int32-lane vector IDCT is provably
// overflow-free: with M = 1536 * max(prescale) = 1536 * 31521, the worst
// pass-1 intermediate is < 35.9*M = 1.74e9 and the worst pass-2
// intermediate < 40.3*M = 1.95e9, both inside int32 (interval analysis
// over the AAN flowgraph, kernels_avx2.cpp). Real 8-bit baseline streams
// stay under 1024 + q/2 <= 1152; blocks exceeding the bound (crafted
// streams, 16-bit quant tables) take idct8x8_scalar inside the vector
// entry point, so dispatch is bit-exact for every input.
constexpr int32_t kSimdIdctMaxCoef = 1536;

// Gaussian taps (sum 256) shared with kernels.cpp's gaussian_taps().
constexpr int16_t kBlurTaps3[3] = {70, 116, 70};
constexpr int16_t kBlurTaps5[5] = {16, 62, 100, 62, 16};

}  // namespace media::detail
