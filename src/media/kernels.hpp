// Image-processing kernels used by the paper's three applications
// (PiP, JPiP, Blur). Every kernel operates on single planes and takes an
// explicit output row range [row0, row1) so the Hinch `slice` and
// `crossdep` shapes can run disjoint horizontal bands in parallel.
//
// `*_cycles` companions give the analytic compute-cost (in simulated
// TriMedia-like cycles) of the corresponding call; the SpaceCAKE-sim
// executor charges these, while wall-clock executors ignore them.
#pragma once

#include <cstdint>

#include "media/frame.hpp"

namespace media {

// ---- runtime kernel dispatch ----------------------------------------------
//
// Every pixel kernel below (and the fixed-point AAN IDCT in jpeg.hpp)
// routes its inner row loops through one of two implementation tiers,
// selected once at runtime — the same reference-retention pattern as
// HuffmanImpl/IdctImpl, extended to a vector instruction set. The
// scalar tier is the bit-exactness reference; the AVX2 tier must
// produce byte-identical output (tests/test_kernels_equiv.cpp pins this
// across ragged widths and borders). See docs/PERF.md ("dispatch
// ladder").
enum class KernelDispatch {
  kAuto,    // avx2 when the host runs it, else scalar
  kScalar,  // portable reference (also forced by HINCH_FORCE_SCALAR)
  kAvx2,    // 256-bit x86
};

// Select the tier. kAuto takes avx2 when the host supports it and
// HINCH_FORCE_SCALAR is not set; explicitly requesting a tier the host
// (or the build) lacks falls back to scalar. Thread-safe; intended to be
// set at startup or between runs, not concurrently with kernel calls.
void set_kernel_dispatch(KernelDispatch dispatch);

// The policy as last set (default kAuto).
KernelDispatch kernel_dispatch();

// The tier actually executing (never kAuto).
KernelDispatch active_kernel_dispatch();

// True when requesting `dispatch` would run that tier (compiled in and
// supported by this host, with the HINCH_FORCE_SCALAR override applied).
bool kernel_dispatch_available(KernelDispatch dispatch);

const char* kernel_dispatch_name(KernelDispatch dispatch);

// ---- copy ----------------------------------------------------------------

void copy_plane(ConstPlaneView src, PlaneView dst, int row0, int row1);
uint64_t copy_cycles(int width, int rows);

// Cost of streaming `bytes` through a DMA-style file/device interface
// (sources and sinks): the core mostly issues transfers rather than
// touching every pixel.
uint64_t io_cycles(uint64_t bytes);

// ---- spatial downscale (box filter) ---------------------------------------

// dst[x, y] = average of the factor x factor source box. Source must be at
// least factor times the destination size. Rows refer to the destination.
void downscale_box(ConstPlaneView src, PlaneView dst, int factor, int row0,
                   int row1);
uint64_t downscale_cycles(int out_width, int out_rows, int factor);

// ---- alpha blend -----------------------------------------------------------

// Blend foreground `fg` over `dst` with its top-left corner at
// (dst_x, dst_y). alpha256 in [0, 256]: 256 = fully opaque foreground.
// Rows refer to the destination plane; rows outside the overlap are
// untouched.
void blend(ConstPlaneView fg, PlaneView dst, int dst_x, int dst_y,
           int alpha256, int row0, int row1);
uint64_t blend_cycles(int fg_width, int fg_rows);

// ---- fused downscale + blend (hand-written sequential baseline) ------------

// Computes the downscaled foreground and blends it into `dst` in a single
// traversal, with no intermediate buffer — exactly the kernel fusion the
// paper's hand-written PiP/JPiP versions use (§4.1).
void downscale_blend(ConstPlaneView src, PlaneView dst, int factor, int dst_x,
                     int dst_y, int alpha256, int row0, int row1);
uint64_t downscale_blend_cycles(int out_width, int out_rows, int factor);

// ---- separable Gaussian blur ------------------------------------------------

// Fixed-point tap sets (sum = 256) for sigma = 1.
// kernel_size must be 3 or 5.
const int16_t* gaussian_taps(int kernel_size);

// Horizontal pass: dst[x,y] = sum of taps over src[x-r .. x+r, y].
// Borders clamp. Rows refer to dst (same size as src).
void blur_h(ConstPlaneView src, PlaneView dst, int kernel_size, int row0,
            int row1);
// Vertical pass: dst[x,y] = sum of taps over src[x, y-r .. y+r].
void blur_v(ConstPlaneView src, PlaneView dst, int kernel_size, int row0,
            int row1);
uint64_t blur_cycles(int width, int rows, int kernel_size);

}  // namespace media
