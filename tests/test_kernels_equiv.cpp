// Equivalence pins for the optimized media hot path.
//
// Every border-split / table-driven / fixed-point rewrite must stay
// faithful to the straightforward scalar formulation:
//  - kernels: bit-identical to the pre-optimization scalar references
//    (re-implemented here, deliberately naive) across odd widths/offsets;
//  - any row-range partition (the Hinch `slice` contract) reproduces the
//    full-range run;
//  - the table-driven Huffman engine decodes bit-identically to the
//    bit-serial reference engine;
//  - the row-interleaved whole-frame decode gives the two-phase decode's
//    pixels, and its errors, on every stream;
//  - the fixed-point AAN IDCT stays within +-1 LSB of the float
//    reference on random coefficient blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <random>
#include <string>

#include "media/frame.hpp"
#include "media/jpeg.hpp"
#include "media/jpeg_common.hpp"
#include "media/kernels.hpp"
#include "media/metrics.hpp"
#include "media/synth.hpp"

namespace {

using media::ConstPlaneView;
using media::Frame;
using media::FramePtr;
using media::PixelFormat;
using media::PlaneView;

int clampi(int v, int lo, int hi) { return v < lo ? lo : (v > hi ? hi : v); }

// --- naive scalar references (the pre-optimization kernel bodies) -----------

uint8_t ref_box_average(ConstPlaneView src, int sx, int sy, int factor) {
  unsigned sum = 0;
  for (int dy = 0; dy < factor; ++dy) {
    const uint8_t* row = src.row(sy + dy) + sx;
    for (int dx = 0; dx < factor; ++dx) sum += row[dx];
  }
  unsigned n = static_cast<unsigned>(factor) * static_cast<unsigned>(factor);
  return static_cast<uint8_t>((sum + n / 2) / n);
}

uint8_t ref_mix(uint8_t fg, uint8_t bg, int alpha256) {
  int v = (fg * alpha256 + bg * (256 - alpha256) + 128) >> 8;
  return static_cast<uint8_t>(v);
}

void ref_downscale_box(ConstPlaneView src, PlaneView dst, int factor,
                       int row0, int row1) {
  row0 = clampi(row0, 0, dst.height);
  row1 = clampi(row1, 0, dst.height);
  for (int y = row0; y < row1; ++y) {
    uint8_t* out = dst.row(y);
    for (int x = 0; x < dst.width; ++x)
      out[x] = ref_box_average(src, x * factor, y * factor, factor);
  }
}

void ref_blend(ConstPlaneView fg, PlaneView dst, int dst_x, int dst_y,
               int alpha256, int row0, int row1) {
  int y_begin = std::max({row0, dst_y, 0});
  int y_end = std::min({row1, dst_y + fg.height, dst.height});
  int x_begin = std::max(dst_x, 0);
  int x_end = std::min(dst_x + fg.width, dst.width);
  for (int y = y_begin; y < y_end; ++y) {
    const uint8_t* src_row = fg.row(y - dst_y);
    uint8_t* dst_row = dst.row(y);
    for (int x = x_begin; x < x_end; ++x)
      dst_row[x] = ref_mix(src_row[x - dst_x], dst_row[x], alpha256);
  }
}

void ref_downscale_blend(ConstPlaneView src, PlaneView dst, int factor,
                         int dst_x, int dst_y, int alpha256, int row0,
                         int row1) {
  const int out_w = src.width / factor;
  const int out_h = src.height / factor;
  int y_begin = std::max({row0, dst_y, 0});
  int y_end = std::min({row1, dst_y + out_h, dst.height});
  int x_begin = std::max(dst_x, 0);
  int x_end = std::min(dst_x + out_w, dst.width);
  for (int y = y_begin; y < y_end; ++y) {
    uint8_t* dst_row = dst.row(y);
    const int sy = (y - dst_y) * factor;
    for (int x = x_begin; x < x_end; ++x) {
      uint8_t v = ref_box_average(src, (x - dst_x) * factor, sy, factor);
      dst_row[x] = ref_mix(v, dst_row[x], alpha256);
    }
  }
}

void ref_blur_h(ConstPlaneView src, PlaneView dst, int kernel_size, int row0,
                int row1) {
  const int16_t* taps = media::gaussian_taps(kernel_size);
  const int r = kernel_size / 2;
  row0 = clampi(row0, 0, dst.height);
  row1 = clampi(row1, 0, dst.height);
  for (int y = row0; y < row1; ++y) {
    const uint8_t* in = src.row(y);
    uint8_t* out = dst.row(y);
    for (int x = 0; x < dst.width; ++x) {
      int acc = 128;
      for (int k = -r; k <= r; ++k)
        acc += taps[k + r] * in[clampi(x + k, 0, src.width - 1)];
      out[x] = static_cast<uint8_t>(acc >> 8);
    }
  }
}

void ref_blur_v(ConstPlaneView src, PlaneView dst, int kernel_size, int row0,
                int row1) {
  const int16_t* taps = media::gaussian_taps(kernel_size);
  const int r = kernel_size / 2;
  row0 = clampi(row0, 0, dst.height);
  row1 = clampi(row1, 0, dst.height);
  for (int y = row0; y < row1; ++y) {
    uint8_t* out = dst.row(y);
    for (int x = 0; x < dst.width; ++x) {
      int acc = 128;
      for (int k = -r; k <= r; ++k)
        acc += taps[k + r] * src.row(clampi(y + k, 0, src.height - 1))[x];
      out[x] = static_cast<uint8_t>(acc >> 8);
    }
  }
}

FramePtr synth_gray(uint64_t seed, int w, int h, int t = 0) {
  media::SynthSpec spec{.seed = seed, .width = w, .height = h,
                        .format = PixelFormat::kGray};
  return media::make_synth_frame(spec, t);
}

// Run `fn(dst, row0, row1)` once over the full range and once per slice
// partition; all results must be bit-identical.
template <typename Fn>
void expect_slice_invariant(int height, int slices, Fn fn,
                            Frame& full_dst, Frame& sliced_dst) {
  fn(full_dst, 0, height);
  int row = 0;
  for (int s = 0; s < slices; ++s) {
    int rows = height / slices + (s < height % slices ? 1 : 0);
    fn(sliced_dst, row, row + rows);
    row += rows;
  }
  EXPECT_TRUE(full_dst.equals(sliced_dst)) << "slices=" << slices;
}

// --- kernel equivalence across odd widths and offsets -----------------------

// Odd plane sizes: exercise interior + border splits with widths around
// the kernel radius and non-multiple-of-factor dimensions.
class KernelSizeSweep : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(KernelSizeSweep, BlurMatchesScalarReference) {
  auto [w, h] = GetParam();
  FramePtr src = synth_gray(100 + static_cast<uint64_t>(w), w, h);
  Frame opt(PixelFormat::kGray, w, h), ref(PixelFormat::kGray, w, h);
  for (int k : {3, 5}) {
    media::blur_h(src->plane(0), opt.plane(0), k, 0, h);
    ref_blur_h(src->plane(0), ref.plane(0), k, 0, h);
    EXPECT_TRUE(opt.equals(ref)) << "blur_h k=" << k << " " << w << "x" << h;
    media::blur_v(src->plane(0), opt.plane(0), k, 0, h);
    ref_blur_v(src->plane(0), ref.plane(0), k, 0, h);
    EXPECT_TRUE(opt.equals(ref)) << "blur_v k=" << k << " " << w << "x" << h;
  }
}

TEST_P(KernelSizeSweep, DownscaleMatchesScalarReference) {
  auto [w, h] = GetParam();
  FramePtr src = synth_gray(200 + static_cast<uint64_t>(w), w, h);
  for (int factor : {1, 2, 3, 4}) {
    int dw = w / factor, dh = h / factor;
    if (dw == 0 || dh == 0) continue;
    Frame opt(PixelFormat::kGray, dw, dh), ref(PixelFormat::kGray, dw, dh);
    media::downscale_box(src->plane(0), opt.plane(0), factor, 0, dh);
    ref_downscale_box(src->plane(0), ref.plane(0), factor, 0, dh);
    EXPECT_TRUE(opt.equals(ref)) << "factor=" << factor << " " << w << "x"
                                 << h;
  }
}

INSTANTIATE_TEST_SUITE_P(OddSizes, KernelSizeSweep,
                         ::testing::Values(std::make_tuple(1, 1),
                                           std::make_tuple(2, 3),
                                           std::make_tuple(3, 5),
                                           std::make_tuple(5, 4),
                                           std::make_tuple(17, 9),
                                           std::make_tuple(31, 7),
                                           std::make_tuple(64, 48),
                                           std::make_tuple(65, 47),
                                           std::make_tuple(127, 33)));

// Blend and fused downscale-blend across odd offsets, including
// partially and fully off-canvas placements.
class BlendOffsetSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BlendOffsetSweep, BlendMatchesScalarReference) {
  auto [dst_x, dst_y, alpha] = GetParam();
  FramePtr fg = synth_gray(300, 23, 17);
  FramePtr opt = synth_gray(301, 41, 29);
  FramePtr ref = opt->clone();
  media::blend(fg->plane(0), opt->plane(0), dst_x, dst_y, alpha, 0, 29);
  ref_blend(fg->plane(0), ref->plane(0), dst_x, dst_y, alpha, 0, 29);
  EXPECT_TRUE(opt->equals(*ref))
      << "dst=(" << dst_x << "," << dst_y << ") alpha=" << alpha;
}

TEST_P(BlendOffsetSweep, DownscaleBlendMatchesScalarReference) {
  auto [dst_x, dst_y, alpha] = GetParam();
  FramePtr src = synth_gray(302, 46, 34);
  for (int factor : {1, 2, 3}) {
    FramePtr opt = synth_gray(303, 41, 29);
    FramePtr ref = opt->clone();
    media::downscale_blend(src->plane(0), opt->plane(0), factor, dst_x,
                           dst_y, alpha, 0, 29);
    ref_downscale_blend(src->plane(0), ref->plane(0), factor, dst_x, dst_y,
                        alpha, 0, 29);
    EXPECT_TRUE(opt->equals(*ref))
        << "factor=" << factor << " dst=(" << dst_x << "," << dst_y
        << ") alpha=" << alpha;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Offsets, BlendOffsetSweep,
    ::testing::Combine(::testing::Values(-7, 0, 3, 38, 100),
                       ::testing::Values(-5, 0, 7, 27),
                       ::testing::Values(0, 77, 256)));

// --- slice invariance (the Hinch `slice` contract) --------------------------

TEST(SliceInvariance, AllKernelsReproduceFullRangeRun) {
  const int w = 53, h = 37;
  FramePtr src = synth_gray(400, w, h);
  for (int slices : {1, 2, 3, 7, h}) {
    for (int k : {3, 5}) {
      Frame full(PixelFormat::kGray, w, h), sliced(PixelFormat::kGray, w, h);
      expect_slice_invariant(
          h, slices,
          [&](Frame& d, int r0, int r1) {
            media::blur_h(src->plane(0), d.plane(0), k, r0, r1);
          },
          full, sliced);
      expect_slice_invariant(
          h, slices,
          [&](Frame& d, int r0, int r1) {
            media::blur_v(src->plane(0), d.plane(0), k, r0, r1);
          },
          full, sliced);
    }
    for (int factor : {1, 2, 3}) {
      int dw = w / factor, dh = h / factor;
      Frame full(PixelFormat::kGray, dw, dh),
          sliced(PixelFormat::kGray, dw, dh);
      expect_slice_invariant(
          dh, std::min(slices, dh),
          [&](Frame& d, int r0, int r1) {
            media::downscale_box(src->plane(0), d.plane(0), factor, r0, r1);
          },
          full, sliced);
    }
    {
      FramePtr bg = synth_gray(401, w, h);
      Frame full(PixelFormat::kGray, w, h), sliced(PixelFormat::kGray, w, h);
      auto reset = [&](Frame& d) {
        media::copy_plane(bg->plane(0), d.plane(0), 0, h);
      };
      reset(full);
      reset(sliced);
      expect_slice_invariant(
          h, slices,
          [&](Frame& d, int r0, int r1) {
            media::downscale_blend(src->plane(0), d.plane(0), 2, 5, 3, 128,
                                   r0, r1);
          },
          full, sliced);
    }
  }
}

// --- Huffman engine equivalence ---------------------------------------------

TEST(HuffmanEngines, TableDrivenMatchesBitSerial) {
  for (auto [w, h, q, rst] :
       {std::make_tuple(64, 48, 75, 0), std::make_tuple(70, 50, 90, 0),
        std::make_tuple(17, 9, 50, 0), std::make_tuple(96, 80, 75, 3),
        std::make_tuple(128, 96, 95, 1), std::make_tuple(80, 64, 30, 8)}) {
    media::SynthSpec spec{.seed = static_cast<uint64_t>(500 + w), .width = w,
                          .height = h, .format = PixelFormat::kYuv420};
    FramePtr frame = media::make_synth_frame(spec, 1);
    auto bytes = media::jpeg::encode(*frame, q, rst);
    ASSERT_TRUE(bytes.is_ok());
    auto fast = media::jpeg::decode_to_coefficients(
        bytes.value().data(), bytes.value().size(),
        media::jpeg::HuffmanImpl::kLookupTable);
    auto ref = media::jpeg::decode_to_coefficients(
        bytes.value().data(), bytes.value().size(),
        media::jpeg::HuffmanImpl::kBitSerial);
    ASSERT_TRUE(fast.is_ok()) << fast.status().to_string();
    ASSERT_TRUE(ref.is_ok()) << ref.status().to_string();
    const auto& a = fast.value();
    const auto& b = ref.value();
    EXPECT_EQ(a.nonzero_coeffs, b.nonzero_coeffs);
    ASSERT_EQ(a.comps.size(), b.comps.size());
    for (size_t c = 0; c < a.comps.size(); ++c) {
      ASSERT_EQ(a.comps[c].blocks.size(), b.comps[c].blocks.size());
      EXPECT_TRUE(std::equal(a.comps[c].blocks.begin(),
                             a.comps[c].blocks.end(),
                             b.comps[c].blocks.begin()))
          << "component " << c << " " << w << "x" << h << " q=" << q
          << " rst=" << rst;
    }
  }
}

TEST(HuffmanEngines, BothRejectTruncationAtEveryPoint) {
  media::SynthSpec spec{.seed = 600, .width = 32, .height = 24,
                        .format = PixelFormat::kYuv420};
  auto bytes = media::jpeg::encode(*media::make_synth_frame(spec, 0), 75, 2);
  ASSERT_TRUE(bytes.is_ok());
  const auto& full = bytes.value();
  // Chopping the stream anywhere must produce a clean error from both
  // engines, never a crash or a silently partial image.
  for (size_t len = 0; len < full.size(); ++len) {
    auto fast = media::jpeg::decode_to_coefficients(
        full.data(), len, media::jpeg::HuffmanImpl::kLookupTable);
    auto ref = media::jpeg::decode_to_coefficients(
        full.data(), len, media::jpeg::HuffmanImpl::kBitSerial);
    EXPECT_FALSE(fast.is_ok()) << "len=" << len;
    EXPECT_FALSE(ref.is_ok()) << "len=" << len;
  }
}

TEST(HuffmanEngines, LookupTableAgreesWithCanonicalWalk) {
  // Every kLookupBits-wide prefix either resolves to the same
  // (symbol, length) the canonical min/max-code walk finds, or is marked
  // as needing the slow path (code longer than kLookupBits).
  constexpr int kBits = media::jpeg::HuffDecodeTable::kLookupBits;
  for (auto spec : {media::jpeg::std_dc_luma(), media::jpeg::std_ac_luma(),
                    media::jpeg::std_dc_chroma(),
                    media::jpeg::std_ac_chroma()}) {
    auto t = media::jpeg::build_decode_table(spec.bits, spec.values,
                                             spec.value_count);
    ASSERT_TRUE(t.valid);
    for (int idx = 0; idx < (1 << kBits); ++idx) {
      // Canonical walk over the prefix bits.
      int sym = -1, len = -1;
      int32_t code = 0;
      for (int l = 1; l <= kBits; ++l) {
        code = (code << 1) | ((idx >> (kBits - l)) & 1);
        if (t.max_code[static_cast<size_t>(l)] >= 0 &&
            code <= t.max_code[static_cast<size_t>(l)]) {
          sym = t.values[static_cast<size_t>(
              t.val_ptr[static_cast<size_t>(l)] +
              (code - t.min_code[static_cast<size_t>(l)]))];
          len = l;
          break;
        }
      }
      uint16_t entry = t.lookup[static_cast<size_t>(idx)];
      if (sym < 0) {
        EXPECT_EQ(entry, 0) << "idx=" << idx;
      } else {
        ASSERT_NE(entry, 0) << "idx=" << idx;
        EXPECT_EQ(entry >> 8, len) << "idx=" << idx;
        EXPECT_EQ(entry & 0xff, sym) << "idx=" << idx;
      }
    }
  }
}

// --- row-interleaved whole-frame decode -------------------------------------

struct StreamCase {
  PixelFormat format;
  int width;
  int height;
  int restart;
};

std::vector<uint8_t> encode_case(const StreamCase& c) {
  media::SynthSpec spec{.seed = static_cast<uint64_t>(700 + c.width),
                        .width = c.width, .height = c.height,
                        .format = c.format};
  auto bytes = media::jpeg::encode(*media::make_synth_frame(spec, 1), 80,
                                   c.restart);
  EXPECT_TRUE(bytes.is_ok()) << bytes.status().to_string();
  return bytes.is_ok() ? std::move(bytes).take() : std::vector<uint8_t>{};
}

std::string case_name(const StreamCase& c) {
  return std::string(c.format == PixelFormat::kGray ? "gray " : "4:2:0 ") +
         std::to_string(c.width) + "x" + std::to_string(c.height) +
         " restart " + std::to_string(c.restart);
}

// Sizes that are not whole MCUs, and restart intervals of 1 and 7: 7
// divides neither mcus_x (3 and 5 at 33 wide, 120 and 240 at 1918), so
// restart segments start mid-row.
const StreamCase kStreamCases[] = {
    {PixelFormat::kYuv420, 1918, 1078, 0},
    {PixelFormat::kYuv420, 1918, 1078, 7},
    {PixelFormat::kYuv420, 33, 17, 0},
    {PixelFormat::kYuv420, 33, 17, 1},
    {PixelFormat::kYuv420, 33, 17, 7},
    {PixelFormat::kGray, 1918, 1078, 1},
    {PixelFormat::kGray, 33, 17, 0},
    {PixelFormat::kGray, 33, 17, 1},
    {PixelFormat::kGray, 33, 17, 7},
};

// media::jpeg::decode (decode_into_planes into a new frame) IDCTs each
// MCU row as soon as it is entropy-decoded; that gives the pixels of the
// two-phase decode (whole coefficient image, then idct_component over
// every block row).
TEST(RowInterleavedDecode, BitExactAgainstTwoPhaseDecode) {
  for (const StreamCase& c : kStreamCases) {
    const std::vector<uint8_t> bytes = encode_case(c);
    media::jpeg::CoeffImage img;
    support::Status st = media::jpeg::decode_to_coefficients_into(
        bytes.data(), bytes.size(), &img);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    FramePtr two_phase = media::make_frame(img.format, img.width, img.height);
    for (int p = 0; p < two_phase->planes(); ++p) {
      const media::jpeg::CoeffPlane& cp = img.comps[static_cast<size_t>(p)];
      media::jpeg::idct_component(cp, two_phase->plane(p), 0, cp.blocks_h);
    }
    auto rows = media::jpeg::decode(bytes.data(), bytes.size());
    ASSERT_TRUE(rows.is_ok()) << rows.status().to_string() << " "
                              << case_name(c);
    EXPECT_EQ(rows.value()->format(), c.format) << case_name(c);
    EXPECT_TRUE(rows.value()->equals(*two_phase)) << case_name(c);

    // The layout the sink is given counts each component's coded blocks.
    media::jpeg::FrameLayout layout;
    st = media::jpeg::decode_into_planes(
        bytes.data(), bytes.size(),
        [&](const media::jpeg::FrameLayout& l, PlaneView* planes) {
          layout = l;
          for (int p = 0; p < two_phase->planes(); ++p)
            planes[p] = two_phase->plane(p);
          return support::Status::ok();
        });
    ASSERT_TRUE(st.is_ok()) << st.to_string() << " " << case_name(c);
    EXPECT_EQ(layout.format, c.format) << case_name(c);
    EXPECT_EQ(layout.width, c.width) << case_name(c);
    EXPECT_EQ(layout.height, c.height) << case_name(c);
    for (size_t p = 0; p < img.comps.size(); ++p)
      EXPECT_EQ(layout.blocks[p], img.comps[p].blocks.size())
          << case_name(c) << " plane " << p;
  }
}

// A stream cut anywhere fails the row-interleaved decode with exactly
// the error the coefficient decode reports.
TEST(RowInterleavedDecode, SameErrorAtEveryTruncation) {
  for (const StreamCase& c : kStreamCases) {
    if (c.width > 64) continue;  // every prefix of a 1080p stream is slow
    const std::vector<uint8_t> bytes = encode_case(c);
    media::jpeg::CoeffImage img;
    for (size_t len = 0; len < bytes.size(); ++len) {
      support::Status coeffs =
          media::jpeg::decode_to_coefficients_into(bytes.data(), len, &img);
      auto rows = media::jpeg::decode(bytes.data(), len);
      ASSERT_FALSE(coeffs.is_ok()) << case_name(c) << " len=" << len;
      ASSERT_FALSE(rows.is_ok()) << case_name(c) << " len=" << len;
      EXPECT_EQ(rows.status().to_string(), coeffs.to_string())
          << case_name(c) << " len=" << len;
    }
  }
}

// A sink error stops the decode before any entropy data is read.
TEST(RowInterleavedDecode, SinkErrorIsReturned) {
  const std::vector<uint8_t> bytes = encode_case(kStreamCases[2]);
  support::Status st = media::jpeg::decode_into_planes(
      bytes.data(), bytes.size(),
      [](const media::jpeg::FrameLayout&, PlaneView*) {
        return support::invalid_argument("no room");
      });
  EXPECT_EQ(st.to_string(), support::invalid_argument("no room").to_string());
}

// --- fixed-point IDCT accuracy ----------------------------------------------

int float_ref_pixel(float v) {
  int p = static_cast<int>(std::lround(v)) + 128;
  return p < 0 ? 0 : (p > 255 ? 255 : p);
}

TEST(FixedIdct, WithinOneLsbOfFloatReference) {
  std::mt19937 rng(7);
  int max_err = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    int16_t in[64] = {};
    // Dense and sparse blocks across the full physically-plausible
    // dequantized coefficient range (|coef| <= ~1024 for 8-bit samples;
    // test well beyond it).
    int mode = trial % 4;
    int mag = mode == 0 ? 1023 : (mode == 1 ? 4095 : 256);
    std::uniform_int_distribution<int> d(-mag, mag);
    if (mode == 3) {
      std::uniform_int_distribution<int> pos(0, 63);
      for (int i = 0; i < 5; ++i) in[pos(rng)] = static_cast<int16_t>(d(rng));
    } else {
      for (int i = 0; i < 64; ++i) in[i] = static_cast<int16_t>(d(rng));
    }
    uint8_t fx[64];
    float fl[64];
    media::jpeg::idct_block_fixed(in, fx);
    media::jpeg::idct_block_float(in, fl);
    for (int i = 0; i < 64; ++i) {
      int err = std::abs(float_ref_pixel(fl[i]) - static_cast<int>(fx[i]));
      max_err = std::max(max_err, err);
      ASSERT_LE(err, 1) << "trial " << trial << " i=" << i;
    }
  }
  // The fixed-point path should be mostly exact, not just within 1.
  EXPECT_LE(max_err, 1);
}

TEST(FixedIdct, DcOnlyBlockIsFlat) {
  for (int dc : {-1024, -256, -8, 0, 8, 100, 1016}) {
    int16_t in[64] = {};
    in[0] = static_cast<int16_t>(dc);
    uint8_t fx[64];
    media::jpeg::idct_block_fixed(in, fx);
    for (int i = 1; i < 64; ++i) EXPECT_EQ(fx[i], fx[0]) << "dc=" << dc;
    float fl[64];
    media::jpeg::idct_block_float(in, fl);
    EXPECT_LE(std::abs(float_ref_pixel(fl[0]) - static_cast<int>(fx[0])), 1)
        << "dc=" << dc;
  }
}

TEST(FixedIdct, ComponentSliceInvariance) {
  // idct_component over any block-row partition reproduces the whole run,
  // for both IDCT implementations.
  media::SynthSpec spec{.seed = 700, .width = 88, .height = 56,
                        .format = PixelFormat::kGray};
  auto bytes = media::jpeg::encode(*media::make_synth_frame(spec, 0), 80);
  ASSERT_TRUE(bytes.is_ok());
  auto coeffs = media::jpeg::decode_to_coefficients(bytes.value().data(),
                                                    bytes.value().size());
  ASSERT_TRUE(coeffs.is_ok());
  const media::jpeg::CoeffPlane& y = coeffs.value().comps[0];
  for (auto impl : {media::jpeg::IdctImpl::kFixedPoint,
                    media::jpeg::IdctImpl::kFloatReference}) {
    Frame whole(PixelFormat::kGray, y.width, y.height);
    media::jpeg::idct_component(y, whole.plane(0), 0, y.blocks_h, impl);
    Frame sliced(PixelFormat::kGray, y.width, y.height);
    for (int b = 0; b < y.blocks_h; ++b)
      media::jpeg::idct_component(y, sliced.plane(0), b, b + 1, impl);
    EXPECT_TRUE(whole.equals(sliced));
  }
}

TEST(FixedIdct, RoundTripPsnrMatchesFloatReference) {
  // Swapping the IDCT must not move encode->decode round-trip quality by
  // more than a token amount (the two decoders differ by at most 1 LSB
  // per pixel).
  media::SynthSpec spec{.seed = 701, .width = 128, .height = 96,
                        .format = PixelFormat::kYuv420};
  FramePtr original = media::make_synth_frame(spec, 2);
  auto bytes = media::jpeg::encode(*original, 85);
  ASSERT_TRUE(bytes.is_ok());
  auto coeffs = media::jpeg::decode_to_coefficients(bytes.value().data(),
                                                    bytes.value().size());
  ASSERT_TRUE(coeffs.is_ok());
  const media::jpeg::CoeffImage& img = coeffs.value();
  FramePtr fixed = media::make_frame(img.format, img.width, img.height);
  FramePtr fl = media::make_frame(img.format, img.width, img.height);
  for (int p = 0; p < 3; ++p) {
    const auto& cp = img.comps[static_cast<size_t>(p)];
    media::jpeg::idct_component(cp, fixed->plane(p), 0, cp.blocks_h,
                                media::jpeg::IdctImpl::kFixedPoint);
    media::jpeg::idct_component(cp, fl->plane(p), 0, cp.blocks_h,
                                media::jpeg::IdctImpl::kFloatReference);
  }
  double psnr_fixed = media::psnr(*original, *fixed);
  double psnr_float = media::psnr(*original, *fl);
  EXPECT_GT(psnr_fixed, 33.0);
  EXPECT_LT(std::abs(psnr_fixed - psnr_float), 0.1);
}

// --- vector tier bit-exactness ----------------------------------------------
//
// Every compiled-in vector tier must reproduce the scalar tier byte for
// byte — not within a tolerance — across ragged widths (SIMD tails),
// borders, every alpha, and the full coefficient range of the IDCT
// (including the overflow guard's scalar fallback above
// |coef| > 1536).

// RAII: pin a tier for one test, restore kAuto for everything after.
class DispatchGuard {
 public:
  explicit DispatchGuard(media::KernelDispatch d) {
    media::set_kernel_dispatch(d);
  }
  ~DispatchGuard() {
    media::set_kernel_dispatch(media::KernelDispatch::kAuto);
  }
};

std::vector<media::KernelDispatch> available_vector_tiers() {
  std::vector<media::KernelDispatch> out;
  if (media::kernel_dispatch_available(media::KernelDispatch::kAvx2))
    out.push_back(media::KernelDispatch::kAvx2);
  return out;
}

constexpr int kRaggedWidths[] = {1, 2, 3, 5, 8, 15, 16, 17, 31, 33, 64, 127};

TEST(VectorTiers, DispatchStateIsSane) {
  EXPECT_TRUE(
      media::kernel_dispatch_available(media::KernelDispatch::kScalar));
  EXPECT_NE(media::active_kernel_dispatch(), media::KernelDispatch::kAuto);
  {
    DispatchGuard g(media::KernelDispatch::kScalar);
    EXPECT_EQ(media::active_kernel_dispatch(),
              media::KernelDispatch::kScalar);
  }
  EXPECT_EQ(media::kernel_dispatch(), media::KernelDispatch::kAuto);
  // Requesting an unavailable tier must run scalar, not crash.
  if (!media::kernel_dispatch_available(media::KernelDispatch::kAvx2)) {
    DispatchGuard g(media::KernelDispatch::kAvx2);
    EXPECT_EQ(media::active_kernel_dispatch(),
              media::KernelDispatch::kScalar);
  }
}

// kAuto takes avx2 exactly when the host runs it and HINCH_FORCE_SCALAR
// (set to anything but "" or "0") does not pin the scalar reference.
TEST(VectorTiers, AutoFollowsHostAndForceScalar) {
  const char* force = std::getenv("HINCH_FORCE_SCALAR");
  const bool forced =
      force != nullptr && force[0] != '\0' && std::string(force) != "0";
  bool host_avx2 = false;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  host_avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
  const bool want_avx2 = host_avx2 && !forced;
  DispatchGuard g(media::KernelDispatch::kAuto);
  EXPECT_EQ(media::kernel_dispatch_available(media::KernelDispatch::kAvx2),
            want_avx2);
  EXPECT_EQ(media::active_kernel_dispatch(),
            want_avx2 ? media::KernelDispatch::kAvx2
                      : media::KernelDispatch::kScalar);
}

TEST(VectorTiers, BlurBitExactAcrossRaggedWidths) {
  for (auto tier : available_vector_tiers()) {
    for (int w : kRaggedWidths) {
      const int h = 9;
      FramePtr src = synth_gray(800 + static_cast<uint64_t>(w), w, h);
      for (int k : {3, 5}) {
        Frame ref(PixelFormat::kGray, w, h), opt(PixelFormat::kGray, w, h);
        {
          DispatchGuard g(media::KernelDispatch::kScalar);
          media::blur_h(src->plane(0), ref.plane(0), k, 0, h);
        }
        {
          DispatchGuard g(tier);
          media::blur_h(src->plane(0), opt.plane(0), k, 0, h);
        }
        EXPECT_TRUE(ref.equals(opt))
            << media::kernel_dispatch_name(tier) << " blur_h k=" << k
            << " w=" << w;
        {
          DispatchGuard g(media::KernelDispatch::kScalar);
          media::blur_v(src->plane(0), ref.plane(0), k, 0, h);
        }
        {
          DispatchGuard g(tier);
          media::blur_v(src->plane(0), opt.plane(0), k, 0, h);
        }
        EXPECT_TRUE(ref.equals(opt))
            << media::kernel_dispatch_name(tier) << " blur_v k=" << k
            << " w=" << w;
      }
    }
  }
}

TEST(VectorTiers, DownscaleBitExactAcrossRaggedWidths) {
  for (auto tier : available_vector_tiers()) {
    for (int w : kRaggedWidths) {
      const int h = 12;
      FramePtr src = synth_gray(820 + static_cast<uint64_t>(w), w, h);
      for (int factor : {2, 4}) {
        int dw = w / factor, dh = h / factor;
        if (dw == 0 || dh == 0) continue;
        Frame ref(PixelFormat::kGray, dw, dh),
            opt(PixelFormat::kGray, dw, dh);
        {
          DispatchGuard g(media::KernelDispatch::kScalar);
          media::downscale_box(src->plane(0), ref.plane(0), factor, 0, dh);
        }
        {
          DispatchGuard g(tier);
          media::downscale_box(src->plane(0), opt.plane(0), factor, 0, dh);
        }
        EXPECT_TRUE(ref.equals(opt))
            << media::kernel_dispatch_name(tier) << " factor=" << factor
            << " w=" << w;
      }
    }
  }
}

TEST(VectorTiers, BlendBitExactAcrossAlphasAndOffsets) {
  for (auto tier : available_vector_tiers()) {
    for (int w : kRaggedWidths) {
      FramePtr fg = synth_gray(840 + static_cast<uint64_t>(w), w, 7);
      FramePtr canvas = synth_gray(841, 131, 17);
      for (int alpha : {0, 7, 128, 255, 256}) {
        for (int dx : {-3, 0, 2, 100}) {
          FramePtr ref = canvas->clone();
          FramePtr opt = canvas->clone();
          {
            DispatchGuard g(media::KernelDispatch::kScalar);
            media::blend(fg->plane(0), ref->plane(0), dx, 3, alpha, 0, 17);
          }
          {
            DispatchGuard g(tier);
            media::blend(fg->plane(0), opt->plane(0), dx, 3, alpha, 0, 17);
          }
          EXPECT_TRUE(ref->equals(*opt))
              << media::kernel_dispatch_name(tier) << " w=" << w
              << " alpha=" << alpha << " dx=" << dx;
        }
      }
    }
  }
}

TEST(VectorTiers, FusedDownscaleBlendBitExact) {
  for (auto tier : available_vector_tiers()) {
    for (int w : kRaggedWidths) {
      FramePtr src = synth_gray(860 + static_cast<uint64_t>(w), w * 2, 14);
      FramePtr canvas = synth_gray(861, 131, 17);
      for (int alpha : {0, 7, 128, 255, 256}) {
        FramePtr ref = canvas->clone();
        FramePtr opt = canvas->clone();
        {
          DispatchGuard g(media::KernelDispatch::kScalar);
          media::downscale_blend(src->plane(0), ref->plane(0), 2, 1, 2,
                                 alpha, 0, 17);
        }
        {
          DispatchGuard g(tier);
          media::downscale_blend(src->plane(0), opt->plane(0), 2, 1, 2,
                                 alpha, 0, 17);
        }
        EXPECT_TRUE(ref->equals(*opt))
            << media::kernel_dispatch_name(tier) << " w=" << w
            << " alpha=" << alpha;
      }
    }
  }
}

TEST(VectorTiers, IdctBitExactIncludingOverflowGuard) {
  std::mt19937 rng(41);
  for (auto tier : available_vector_tiers()) {
    for (int trial = 0; trial < 2000; ++trial) {
      int16_t in[64] = {};
      // Magnitude tiers: the physically plausible range, the exact guard
      // boundary, and far beyond it (forces the in-kernel scalar
      // fallback) — plus sparse blocks, including the shapes the vector
      // kernels special-case (zero rows 4-7, zero columns 4-7, and
      // their top-left-quadrant intersection).
      int mode = trial % 7;
      int mag = mode == 0 ? 1023 : (mode == 1 ? 1536 : 32767);
      std::uniform_int_distribution<int> d(-mag, mag);
      std::uniform_int_distribution<int> dv(-1536, 1536);
      if (mode == 3) {
        std::uniform_int_distribution<int> pos(0, 63);
        for (int i = 0; i < 6; ++i)
          in[pos(rng)] = static_cast<int16_t>(dv(rng));
      } else if (mode == 4) {  // rows 4-7 zero
        for (int i = 0; i < 32; ++i) in[i] = static_cast<int16_t>(dv(rng));
      } else if (mode == 5) {  // columns 4-7 zero
        for (int y = 0; y < 8; ++y)
          for (int x = 0; x < 4; ++x)
            in[y * 8 + x] = static_cast<int16_t>(dv(rng));
      } else if (mode == 6) {  // top-left 4x4 quadrant only
        for (int y = 0; y < 4; ++y)
          for (int x = 0; x < 4; ++x)
            in[y * 8 + x] = static_cast<int16_t>(dv(rng));
      } else {
        for (int i = 0; i < 64; ++i) in[i] = static_cast<int16_t>(d(rng));
      }
      uint8_t ref[64], opt[64];
      {
        DispatchGuard g(media::KernelDispatch::kScalar);
        media::jpeg::idct_block_fixed(in, ref);
      }
      {
        DispatchGuard g(tier);
        media::jpeg::idct_block_fixed(in, opt);
      }
      for (int i = 0; i < 64; ++i)
        ASSERT_EQ(ref[i], opt[i])
            << media::kernel_dispatch_name(tier) << " trial " << trial
            << " i=" << i;
    }
  }
}

TEST(VectorTiers, FullDecodeBitExactVsScalar) {
  // End to end: a real decode (entropy + IDCT over every plane) must not
  // move a single pixel between tiers.
  media::SynthSpec spec{.seed = 900, .width = 136, .height = 104,
                        .format = PixelFormat::kYuv420};
  auto bytes = media::jpeg::encode(*media::make_synth_frame(spec, 1), 85);
  ASSERT_TRUE(bytes.is_ok());
  FramePtr ref;
  {
    DispatchGuard g(media::KernelDispatch::kScalar);
    auto r = media::jpeg::decode(bytes.value().data(), bytes.value().size());
    ASSERT_TRUE(r.is_ok());
    ref = std::move(r).take();
  }
  for (auto tier : available_vector_tiers()) {
    DispatchGuard g(tier);
    auto r = media::jpeg::decode(bytes.value().data(), bytes.value().size());
    ASSERT_TRUE(r.is_ok());
    EXPECT_TRUE(ref->equals(*r.value()))
        << media::kernel_dispatch_name(tier);
  }
}

}  // namespace
