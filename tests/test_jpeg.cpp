#include <gtest/gtest.h>

#include "media/jpeg.hpp"
#include "media/jpeg_common.hpp"
#include "media/metrics.hpp"
#include "media/synth.hpp"

namespace {

using media::Frame;
using media::FramePtr;
using media::PixelFormat;

std::vector<uint8_t> must_encode(const Frame& f, int quality) {
  auto r = media::jpeg::encode(f, quality);
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return r.is_ok() ? std::move(r).take() : std::vector<uint8_t>{};
}

FramePtr must_decode(const std::vector<uint8_t>& bytes) {
  auto r = media::jpeg::decode(bytes.data(), bytes.size());
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return r.is_ok() ? std::move(r).take() : nullptr;
}

TEST(JpegTables, ZigZagIsAPermutation) {
  bool seen[64] = {};
  for (int i = 0; i < 64; ++i) {
    ASSERT_LT(media::jpeg::kZigZag[i], 64);
    EXPECT_FALSE(seen[media::jpeg::kZigZag[i]]);
    seen[media::jpeg::kZigZag[i]] = true;
  }
}

TEST(JpegTables, QuantScaling) {
  auto q50 = media::jpeg::scale_quant_table(media::jpeg::kStdLumaQuant, 50);
  EXPECT_EQ(q50[0], media::jpeg::kStdLumaQuant[0]);
  auto q100 = media::jpeg::scale_quant_table(media::jpeg::kStdLumaQuant, 100);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(q100[static_cast<size_t>(i)], 1);
  auto q10 = media::jpeg::scale_quant_table(media::jpeg::kStdLumaQuant, 10);
  for (int i = 0; i < 64; ++i)
    EXPECT_GE(q10[static_cast<size_t>(i)], q50[static_cast<size_t>(i)]);
}

TEST(JpegTables, HuffmanEncodeDecodeTablesAgree) {
  // Every symbol in the spec must round-trip through the canonical
  // decode table.
  for (auto spec : {media::jpeg::std_dc_luma(), media::jpeg::std_ac_luma(),
                    media::jpeg::std_dc_chroma(),
                    media::jpeg::std_ac_chroma()}) {
    auto enc = media::jpeg::build_encode_table(spec);
    auto dec =
        media::jpeg::build_decode_table(spec.bits, spec.values,
                                        spec.value_count);
    ASSERT_TRUE(dec.valid);
    int present = 0;
    for (int sym = 0; sym < 256; ++sym)
      if (enc.size[static_cast<size_t>(sym)]) ++present;
    EXPECT_EQ(present, spec.value_count);
  }
}

class JpegRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(JpegRoundTripTest, EncodeDecodePsnr) {
  auto [width, height, quality, seed] = GetParam();
  media::SynthSpec spec{.seed = static_cast<uint64_t>(seed), .width = width,
                        .height = height, .format = PixelFormat::kYuv420};
  FramePtr original = media::make_synth_frame(spec, 3);
  std::vector<uint8_t> bytes = must_encode(*original, quality);
  ASSERT_FALSE(bytes.empty());
  // Tiny images are header-dominated; only expect compression when the
  // payload is big enough to amortize the tables.
  if (original->bytes() > 4096) {
    EXPECT_LT(bytes.size(), original->bytes());
  }
  FramePtr decoded = must_decode(bytes);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->width(), width);
  EXPECT_EQ(decoded->height(), height);
  EXPECT_EQ(decoded->format(), PixelFormat::kYuv420);
  double quality_db = media::psnr(*original, *decoded);
  double min_db = quality >= 90 ? 38.0 : quality >= 75 ? 33.0 : 27.0;
  EXPECT_GT(quality_db, min_db)
      << width << "x" << height << " q=" << quality;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JpegRoundTripTest,
    ::testing::Values(std::make_tuple(64, 48, 75, 1),
                      std::make_tuple(128, 96, 90, 2),
                      std::make_tuple(96, 96, 50, 3),
                      std::make_tuple(176, 144, 75, 4),
                      std::make_tuple(320, 240, 95, 5),
                      // Non-multiple-of-16 dimensions exercise edge MCUs.
                      std::make_tuple(70, 50, 75, 6),
                      std::make_tuple(17, 9, 85, 7)));

TEST(Jpeg, GrayRoundTrip) {
  media::SynthSpec spec{.seed = 11, .width = 80, .height = 64,
                        .format = PixelFormat::kGray};
  FramePtr original = media::make_synth_frame(spec, 0);
  std::vector<uint8_t> bytes = must_encode(*original, 85);
  FramePtr decoded = must_decode(bytes);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->format(), PixelFormat::kGray);
  EXPECT_GT(media::psnr(*original, *decoded), 35.0);
}

TEST(Jpeg, HigherQualityIsLargerAndBetter) {
  media::SynthSpec spec{.seed = 12, .width = 96, .height = 80};
  FramePtr original = media::make_synth_frame(spec, 0);
  auto low = must_encode(*original, 30);
  auto high = must_encode(*original, 95);
  EXPECT_GT(high.size(), low.size());
  EXPECT_GT(media::psnr(*original, *must_decode(high)),
            media::psnr(*original, *must_decode(low)));
}

TEST(Jpeg, TwoPhaseDecodeMatchesFullDecode) {
  media::SynthSpec spec{.seed = 13, .width = 112, .height = 80};
  FramePtr original = media::make_synth_frame(spec, 2);
  auto bytes = must_encode(*original, 75);

  FramePtr full = must_decode(bytes);
  auto coeffs = media::jpeg::decode_to_coefficients(bytes.data(),
                                                    bytes.size());
  ASSERT_TRUE(coeffs.is_ok());
  const media::jpeg::CoeffImage& img = coeffs.value();
  ASSERT_EQ(img.comps.size(), 3u);

  FramePtr assembled = media::make_frame(img.format, img.width, img.height);
  for (int p = 0; p < 3; ++p) {
    const media::jpeg::CoeffPlane& cp = img.comps[static_cast<size_t>(p)];
    media::jpeg::idct_component(cp, assembled->plane(p), 0, cp.blocks_h);
  }
  EXPECT_TRUE(full->equals(*assembled));
}

TEST(Jpeg, SlicedIdctMatchesWhole) {
  media::SynthSpec spec{.seed = 14, .width = 128, .height = 96};
  FramePtr original = media::make_synth_frame(spec, 1);
  auto bytes = must_encode(*original, 80);
  auto coeffs = media::jpeg::decode_to_coefficients(bytes.data(),
                                                    bytes.size());
  ASSERT_TRUE(coeffs.is_ok());
  const media::jpeg::CoeffPlane& y = coeffs.value().comps[0];

  media::FramePtr whole = media::make_frame(PixelFormat::kGray, y.width,
                                            y.height);
  media::jpeg::idct_component(y, whole->plane(0), 0, y.blocks_h);

  media::FramePtr sliced = media::make_frame(PixelFormat::kGray, y.width,
                                             y.height);
  for (int b = 0; b < y.blocks_h; ++b)
    media::jpeg::idct_component(y, sliced->plane(0), b, b + 1);
  EXPECT_TRUE(whole->equals(*sliced));
}

TEST(Jpeg, CoeffImageStats) {
  media::SynthSpec spec{.seed = 15, .width = 64, .height = 64};
  FramePtr original = media::make_synth_frame(spec, 0);
  auto bytes = must_encode(*original, 75);
  auto coeffs = media::jpeg::decode_to_coefficients(bytes.data(),
                                                    bytes.size());
  ASSERT_TRUE(coeffs.is_ok());
  EXPECT_EQ(coeffs.value().compressed_bytes, bytes.size());
  EXPECT_GT(coeffs.value().nonzero_coeffs, 0u);
  EXPECT_EQ(coeffs.value().comps[0].blocks_w, 8);
  EXPECT_EQ(coeffs.value().comps[0].blocks_h, 8);
  EXPECT_EQ(coeffs.value().comps[1].blocks_w, 4);
}

TEST(Jpeg, EncodeRejectsBadInput) {
  Frame f(PixelFormat::kYuv444, 16, 16);
  EXPECT_FALSE(media::jpeg::encode(f, 75).is_ok());  // 444 unsupported
  Frame g(PixelFormat::kGray, 16, 16);
  EXPECT_FALSE(media::jpeg::encode(g, 0).is_ok());
  EXPECT_FALSE(media::jpeg::encode(g, 101).is_ok());
}

struct Corruption {
  const char* name;
  size_t offset;
  uint8_t value;
};

TEST(Jpeg, DecodeRejectsGarbage) {
  std::vector<uint8_t> garbage(100, 0x55);
  EXPECT_FALSE(media::jpeg::decode(garbage.data(), garbage.size()).is_ok());
  EXPECT_FALSE(media::jpeg::decode(garbage.data(), 0).is_ok());
}

TEST(Jpeg, DecodeRejectsTruncation) {
  media::SynthSpec spec{.seed = 16, .width = 48, .height = 48};
  auto bytes = must_encode(*media::make_synth_frame(spec, 0), 75);
  // Chop the stream at several points; none may crash, all must error.
  for (size_t len : {size_t{2}, size_t{10}, bytes.size() / 2}) {
    auto r = media::jpeg::decode(bytes.data(), len);
    EXPECT_FALSE(r.is_ok()) << "len=" << len;
  }
}

TEST(Jpeg, DecodeIsDeterministic) {
  media::SynthSpec spec{.seed = 17, .width = 80, .height = 48};
  auto bytes = must_encode(*media::make_synth_frame(spec, 0), 60);
  FramePtr a = must_decode(bytes);
  FramePtr b = must_decode(bytes);
  EXPECT_TRUE(a->equals(*b));
}

class RestartIntervalTest : public ::testing::TestWithParam<int> {};

TEST_P(RestartIntervalTest, RoundTripsWithRestartMarkers) {
  media::SynthSpec spec{.seed = 23, .width = 96, .height = 80};
  FramePtr original = media::make_synth_frame(spec, 1);
  auto plain = media::jpeg::encode(*original, 75, 0);
  auto with_rst = media::jpeg::encode(*original, 75, GetParam());
  ASSERT_TRUE(plain.is_ok());
  ASSERT_TRUE(with_rst.is_ok());
  // Restart markers add bytes but must not change the decoded pixels.
  EXPECT_GT(with_rst.value().size(), plain.value().size());
  FramePtr a = must_decode(plain.value());
  FramePtr b = must_decode(with_rst.value());
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(a->equals(*b));
}

INSTANTIATE_TEST_SUITE_P(Intervals, RestartIntervalTest,
                         ::testing::Values(1, 3, 8, 30));

TEST(Jpeg, GrayRestartRoundTrip) {
  media::SynthSpec spec{.seed = 24, .width = 60, .height = 44,
                        .format = PixelFormat::kGray};
  FramePtr original = media::make_synth_frame(spec, 0);
  auto bytes = media::jpeg::encode(*original, 80, 5);
  ASSERT_TRUE(bytes.is_ok());
  FramePtr decoded = must_decode(bytes.value());
  ASSERT_TRUE(decoded);
  EXPECT_GT(media::psnr(*original, *decoded), 33.0);
}

TEST(Jpeg, MissingRestartMarkerRejected) {
  media::SynthSpec spec{.seed = 25, .width = 64, .height = 48};
  auto bytes = media::jpeg::encode(*media::make_synth_frame(spec, 0), 75, 2);
  ASSERT_TRUE(bytes.is_ok());
  // Rewrite the n-th RST marker (0xFF 0xD0..0xD7 after the scan start);
  // both Huffman engines must fail cleanly at it, not crash.
  auto corrupt_nth_rst = [&](int n, uint8_t value) {
    std::vector<uint8_t> corrupt = bytes.value();
    int seen = 0;
    for (size_t i = 2; i + 1 < corrupt.size(); ++i) {
      if (corrupt[i] == 0xff && corrupt[i + 1] >= 0xd0 &&
          corrupt[i + 1] <= 0xd7 && ++seen == n) {
        corrupt[i + 1] = value;
        break;
      }
    }
    EXPECT_EQ(seen, n);
    return corrupt;
  };
  // The first marker is no longer a marker; the second carries an
  // out-of-sequence restart index (RST6 where RST1 is due).
  for (const auto& corrupt : {corrupt_nth_rst(1, 0x3f),
                              corrupt_nth_rst(2, 0xd6)}) {
    EXPECT_FALSE(media::jpeg::decode(corrupt.data(), corrupt.size()).is_ok());
    for (auto impl : {media::jpeg::HuffmanImpl::kLookupTable,
                      media::jpeg::HuffmanImpl::kBitSerial}) {
      auto r = media::jpeg::decode_to_coefficients(corrupt.data(),
                                                   corrupt.size(), impl);
      ASSERT_FALSE(r.is_ok());
      EXPECT_NE(r.status().to_string().find("RSTn"), std::string::npos)
          << r.status().to_string();
    }
  }
}

TEST(Jpeg, EncodeRejectsBadRestartInterval) {
  media::SynthSpec spec{.seed = 26, .width = 32, .height = 32};
  FramePtr f = media::make_synth_frame(spec, 0);
  EXPECT_FALSE(media::jpeg::encode(*f, 75, -1).is_ok());
  EXPECT_FALSE(media::jpeg::encode(*f, 75, 70000).is_ok());
}

TEST(Jpeg, CostHelpersScale) {
  EXPECT_GT(media::jpeg::entropy_decode_cycles(2000, 100),
            media::jpeg::entropy_decode_cycles(1000, 100));
  EXPECT_EQ(media::jpeg::idct_cycles(10), 10 * media::jpeg::idct_cycles(1));
}

}  // namespace
