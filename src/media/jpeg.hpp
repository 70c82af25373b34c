// Baseline JFIF/JPEG codec, written from scratch (ITU-T T.81 baseline
// sequential DCT, Annex-K tables). Substrate for the paper's JPiP
// application.
//
// The decoder is deliberately split into the two phases the paper's
// JPiP task graph uses (Fig. 7):
//   1. decode_to_coefficients — marker parse + Huffman entropy decode +
//      dequantization ("JPEG decode" component), then
//   2. idct_component          — per-plane IDCT over a block-row range
//      ("IDCT Y/U/V" components, data-parallel over slices).
// A whole-frame decode (decode, decode_into_planes) runs the same two
// phases row-interleaved instead: each MCU row is IDCT'd as soon as it
// is entropy-decoded, so the coefficients never leave the cache.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "media/frame.hpp"
#include "support/status.hpp"

namespace media::jpeg {

// Dequantized DCT coefficients of one colour component.
struct CoeffPlane {
  int blocks_w = 0;  // blocks per row
  int blocks_h = 0;  // block rows
  int width = 0;     // pixel width (may be less than 8*blocks_w)
  int height = 0;
  // blocks_w * blocks_h blocks in raster order, natural (de-zigzagged)
  // coefficient order, already multiplied by the quantization table.
  std::vector<std::array<int16_t, 64>> blocks;
};

// Result of the entropy-decode phase.
struct CoeffImage {
  int width = 0;
  int height = 0;
  PixelFormat format = PixelFormat::kGray;
  std::vector<CoeffPlane> comps;  // 1 (gray) or 3 (YUV)
  size_t compressed_bytes = 0;    // size of the input bitstream
  size_t nonzero_coeffs = 0;      // entropy-decoded non-zero coefficients
};

// --- encoding ---------------------------------------------------------------

// Encode a kGray or kYuv420 frame as baseline JPEG. quality in [1, 100].
// restart_interval > 0 emits a DRI segment and an RSTn marker every that
// many MCUs (resynchronization points).
support::Result<std::vector<uint8_t>> encode(const Frame& frame, int quality,
                                             int restart_interval = 0);

// --- decoding ---------------------------------------------------------------

// Host-side implementation selection for the two decode phases. The
// optimized paths are the defaults; the reference paths are retained for
// equivalence tests and as the "before" leg of the decode microbench.
// Neither choice affects the simulated-cycle helpers below.
enum class HuffmanImpl {
  kLookupTable,  // 8-bit fast-path table + 64-bit buffered bit reader
  kBitSerial,    // original one-bit-at-a-time T.81 §F.2.2.3 walk
};
enum class IdctImpl {
  kFixedPoint,      // fixed-point AAN separable IDCT
  kFloatReference,  // naive O(8) float multiply per output per pass
};

// Phase 1: parse markers, entropy-decode, dequantize. Both Huffman
// implementations produce bit-identical CoeffImages. The decode is
// sequential; restart-coded streams have every RSTn checked in order and
// the DC predictors reset at each one (T.81 §F.2.1.3.1). MJPEG decode
// parallelises across frames in the coordination layer instead
// (apps/mjpeg.hpp).
support::Result<CoeffImage> decode_to_coefficients(
    const uint8_t* data, size_t size,
    HuffmanImpl impl = HuffmanImpl::kLookupTable);

// Streaming variant: decodes into `*out`, reusing its coefficient-block
// storage when the geometry matches the previous frame. For an MJPEG
// stream this skips a multi-megabyte allocation + zero-fill per frame,
// which otherwise rivals the entropy decode itself in wall-clock cost.
// On error `*out` is left in an unspecified (but reusable) state.
support::Status decode_to_coefficients_into(
    const uint8_t* data, size_t size, CoeffImage* out,
    HuffmanImpl impl = HuffmanImpl::kLookupTable);

// Phase 2: IDCT block rows [block_row0, block_row1) of one component into
// `out` (which must have the component's pixel dimensions). Thread-safe
// for disjoint row ranges. The fixed-point path is within +-1 LSB of the
// float reference.
void idct_component(const CoeffPlane& comp, PlaneView out, int block_row0,
                    int block_row1, IdctImpl impl = IdctImpl::kFixedPoint);

// Single-block transforms, exposed for accuracy tests and microbenches.
// Float reference: raw spatial values (caller level-shifts and clamps).
void idct_block_float(const int16_t in[64], float out[64]);
// Fixed-point AAN: final pixels (level shift + clamp applied).
void idct_block_fixed(const int16_t in[64], uint8_t out[64]);

// What decode_into_planes reads from the headers: the frame's format and
// size and, per colour component, the 8x8 blocks the scan codes (its
// MCU-padded block grid, the blocks.size() decode_to_coefficients gives).
struct FrameLayout {
  PixelFormat format = PixelFormat::kGray;
  int width = 0;
  int height = 0;
  std::array<uint64_t, 3> blocks{};
};

// Where decode_into_planes writes: called once the headers are parsed.
// It fills planes[0, plane_count(layout.format)) with views of each
// colour component's pixel size (plane_dims). An error stops the decode
// and is returned.
using PlaneSink = std::function<support::Status(const FrameLayout& layout,
                                                PlaneView* planes)>;

// Whole-frame decode, row-interleaved: entropy-decode one MCU row, then
// IDCT it at once. The coefficient scratch is one MCU row (about 92 KB
// at 1080p 4:2:0), allocated per call, so concurrent calls share
// nothing. Bit-exact with decode_to_coefficients_into followed by
// idct_component over every row, and fails with the same error on the
// same input (rows decoded before the error are already written).
support::Status decode_into_planes(const uint8_t* data, size_t size,
                                   const PlaneSink& sink);

// Full decode into a new frame (decode_into_planes).
support::Result<FramePtr> decode(const uint8_t* data, size_t size);

// --- simulated-cycle cost helpers -------------------------------------------

// Entropy decode + marker parse cost.
uint64_t entropy_decode_cycles(size_t compressed_bytes, size_t total_blocks);
// IDCT cost for `blocks` 8x8 blocks.
uint64_t idct_cycles(uint64_t blocks);

}  // namespace media::jpeg
