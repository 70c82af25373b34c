#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "media/frame.hpp"
#include "media/kernels.hpp"
#include "media/metrics.hpp"
#include "media/mjpeg.hpp"
#include "media/synth.hpp"

namespace {

using media::ConstPlaneView;
using media::Frame;
using media::FramePtr;
using media::PixelFormat;

TEST(Frame, PlaneLayout420) {
  Frame f(PixelFormat::kYuv420, 64, 48);
  EXPECT_EQ(f.planes(), 3);
  EXPECT_EQ(f.plane(0).width, 64);
  EXPECT_EQ(f.plane(0).height, 48);
  EXPECT_EQ(f.plane(1).width, 32);
  EXPECT_EQ(f.plane(1).height, 24);
  EXPECT_EQ(f.bytes(), 64u * 48 + 2 * 32 * 24);
  EXPECT_EQ(f.plane_offset(0), 0u);
  EXPECT_EQ(f.plane_offset(1), 64u * 48);
  EXPECT_EQ(f.plane_offset(2), 64u * 48 + 32 * 24);
}

TEST(Frame, OddDimensions420RoundUpChroma) {
  Frame f(PixelFormat::kYuv420, 65, 47);
  EXPECT_EQ(f.plane(1).width, 33);
  EXPECT_EQ(f.plane(1).height, 24);
}

TEST(Frame, GrayAnd444) {
  Frame g(PixelFormat::kGray, 10, 10);
  EXPECT_EQ(g.planes(), 1);
  EXPECT_EQ(g.bytes(), 100u);
  Frame f(PixelFormat::kYuv444, 10, 10);
  EXPECT_EQ(f.planes(), 3);
  EXPECT_EQ(f.bytes(), 300u);
}

TEST(Frame, FillEqualsClone) {
  Frame f(PixelFormat::kYuv420, 16, 16);
  f.fill(77);
  EXPECT_EQ(f.plane(2).row(3)[5], 77);
  FramePtr c = f.clone();
  EXPECT_TRUE(f.equals(*c));
  c->plane(0).row(0)[0] = 1;
  EXPECT_FALSE(f.equals(*c));
}

// 640x480 yuv420 blocks (460800 bytes) go through the pixel pool: a freed
// block comes back for the next frame of its size, zeroed again, and a
// clone never shares its source's block.
TEST(Frame, PooledBlockIsReusedZeroedAndAligned) {
  const uint8_t* first = nullptr;
  {
    FramePtr f = media::make_frame(PixelFormat::kYuv420, 640, 480);
    first = f->raw();
    f->fill(200);
  }
  FramePtr g = media::make_frame(PixelFormat::kYuv420, 640, 480);
  EXPECT_EQ(g->raw(), first);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(g->raw()) % 64, 0u);
  EXPECT_TRUE(std::all_of(g->raw(), g->raw() + g->bytes(),
                          [](uint8_t v) { return v == 0; }));
  g->plane(2).row(239)[319] = 9;
  FramePtr c = g->clone();
  EXPECT_NE(c->raw(), g->raw());
  EXPECT_TRUE(g->equals(*c));
  g->plane(0).row(0)[0] = 1;
  EXPECT_FALSE(g->equals(*c));
}

TEST(Synth, DeterministicPerFrame) {
  media::SynthSpec spec{.seed = 5, .width = 64, .height = 48};
  FramePtr a = media::make_synth_frame(spec, 7);
  FramePtr b = media::make_synth_frame(spec, 7);
  EXPECT_TRUE(a->equals(*b));
  FramePtr c = media::make_synth_frame(spec, 8);
  EXPECT_FALSE(a->equals(*c));
}

TEST(Synth, SeedsProduceDifferentClips) {
  media::SynthSpec a{.seed = 1, .width = 64, .height = 48};
  media::SynthSpec b{.seed = 2, .width = 64, .height = 48};
  EXPECT_FALSE(
      media::make_synth_frame(a, 0)->equals(*media::make_synth_frame(b, 0)));
}

// --- kernels -----------------------------------------------------------------

TEST(Kernels, CopyPlaneRows) {
  Frame src(PixelFormat::kGray, 8, 8);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x)
      src.plane(0).row(y)[x] = static_cast<uint8_t>(y * 8 + x);
  Frame dst(PixelFormat::kGray, 8, 8);
  dst.fill(0);
  media::copy_plane(src.plane(0), dst.plane(0), 2, 5);
  EXPECT_EQ(dst.plane(0).row(1)[0], 0);  // outside the band
  EXPECT_EQ(dst.plane(0).row(2)[3], src.plane(0).row(2)[3]);
  EXPECT_EQ(dst.plane(0).row(4)[7], src.plane(0).row(4)[7]);
  EXPECT_EQ(dst.plane(0).row(5)[0], 0);
}

TEST(Kernels, DownscaleAveragesBoxes) {
  Frame src(PixelFormat::kGray, 4, 4);
  // One 2x2 box of {0, 10, 20, 30} -> avg 15; others constant.
  src.fill(100);
  src.plane(0).row(0)[0] = 0;
  src.plane(0).row(0)[1] = 10;
  src.plane(0).row(1)[0] = 20;
  src.plane(0).row(1)[1] = 30;
  Frame dst(PixelFormat::kGray, 2, 2);
  media::downscale_box(src.plane(0), dst.plane(0), 2, 0, 2);
  EXPECT_EQ(dst.plane(0).row(0)[0], 15);
  EXPECT_EQ(dst.plane(0).row(0)[1], 100);
  EXPECT_EQ(dst.plane(0).row(1)[1], 100);
}

TEST(Kernels, DownscaleFactor1IsCopy) {
  media::SynthSpec spec{.seed = 3, .width = 32, .height = 32,
                        .format = PixelFormat::kGray};
  FramePtr src = media::make_synth_frame(spec, 0);
  Frame dst(PixelFormat::kGray, 32, 32);
  media::downscale_box(src->plane(0), dst.plane(0), 1, 0, 32);
  EXPECT_TRUE(src->equals(dst));
}

TEST(Kernels, BlendOpaqueOverwrites) {
  Frame fg(PixelFormat::kGray, 4, 4);
  fg.fill(200);
  Frame bg(PixelFormat::kGray, 8, 8);
  bg.fill(10);
  media::blend(fg.plane(0), bg.plane(0), 2, 3, 256, 0, 8);
  EXPECT_EQ(bg.plane(0).row(3)[2], 200);
  EXPECT_EQ(bg.plane(0).row(6)[5], 200);
  EXPECT_EQ(bg.plane(0).row(2)[2], 10);   // above the overlay
  EXPECT_EQ(bg.plane(0).row(3)[1], 10);   // left of the overlay
  EXPECT_EQ(bg.plane(0).row(7)[2], 10);   // below the overlay
}

TEST(Kernels, BlendAlphaZeroIsNoop) {
  Frame fg(PixelFormat::kGray, 4, 4);
  fg.fill(200);
  Frame bg(PixelFormat::kGray, 8, 8);
  bg.fill(10);
  media::blend(fg.plane(0), bg.plane(0), 0, 0, 0, 0, 8);
  EXPECT_EQ(bg.plane(0).row(0)[0], 10);
}

TEST(Kernels, BlendHalfAlphaMixes) {
  Frame fg(PixelFormat::kGray, 1, 1);
  fg.fill(200);
  Frame bg(PixelFormat::kGray, 1, 1);
  bg.fill(100);
  media::blend(fg.plane(0), bg.plane(0), 0, 0, 128, 0, 1);
  EXPECT_EQ(bg.plane(0).row(0)[0], 150);
}

TEST(Kernels, BlendClipsAtFrameEdges) {
  Frame fg(PixelFormat::kGray, 4, 4);
  fg.fill(200);
  Frame bg(PixelFormat::kGray, 8, 8);
  bg.fill(10);
  media::blend(fg.plane(0), bg.plane(0), 6, 6, 256, 0, 8);  // hangs off
  EXPECT_EQ(bg.plane(0).row(7)[7], 200);
  EXPECT_EQ(bg.plane(0).row(5)[5], 10);
}

// Fused downscale+blend must be pixel-identical to the separate kernels
// (the Fig. 8 comparison depends on both versions computing the same
// output).
class FusedEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FusedEquivalenceTest, FusedMatchesSeparate) {
  auto [factor, alpha] = GetParam();
  media::SynthSpec spec{.seed = 17, .width = 64, .height = 48,
                        .format = PixelFormat::kGray};
  FramePtr src = media::make_synth_frame(spec, 2);
  media::SynthSpec bg_spec{.seed = 18, .width = 40, .height = 36,
                           .format = PixelFormat::kGray};
  FramePtr bg1 = media::make_synth_frame(bg_spec, 0);
  FramePtr bg2 = bg1->clone();

  // Separate.
  int sw = 64 / factor, sh = 48 / factor;
  Frame small(PixelFormat::kGray, sw, sh);
  media::downscale_box(src->plane(0), small.plane(0), factor, 0, sh);
  media::blend(small.plane(0), bg1->plane(0), 5, 7, alpha, 0, 36);
  // Fused.
  media::downscale_blend(src->plane(0), bg2->plane(0), factor, 5, 7, alpha,
                         0, 36);
  EXPECT_TRUE(bg1->equals(*bg2))
      << "factor=" << factor << " alpha=" << alpha;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FusedEquivalenceTest,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(64, 128, 256)));

TEST(Kernels, GaussianTapsSumTo256) {
  for (int k : {3, 5}) {
    const int16_t* taps = media::gaussian_taps(k);
    int sum = 0;
    for (int i = 0; i < k; ++i) sum += taps[i];
    EXPECT_EQ(sum, 256) << "kernel " << k;
  }
}

TEST(Kernels, BlurPreservesConstantImage) {
  Frame src(PixelFormat::kGray, 16, 16);
  src.fill(123);
  Frame dst(PixelFormat::kGray, 16, 16);
  for (int k : {3, 5}) {
    media::blur_h(src.plane(0), dst.plane(0), k, 0, 16);
    for (int y = 0; y < 16; ++y)
      for (int x = 0; x < 16; ++x) EXPECT_EQ(dst.plane(0).row(y)[x], 123);
    media::blur_v(src.plane(0), dst.plane(0), k, 0, 16);
    for (int y = 0; y < 16; ++y)
      for (int x = 0; x < 16; ++x) EXPECT_EQ(dst.plane(0).row(y)[x], 123);
  }
}

TEST(Kernels, BlurSmoothsAnEdge) {
  Frame src(PixelFormat::kGray, 16, 1);
  for (int x = 0; x < 16; ++x)
    src.plane(0).row(0)[x] = x < 8 ? 0 : 255;
  Frame dst(PixelFormat::kGray, 16, 1);
  media::blur_h(src.plane(0), dst.plane(0), 3, 0, 1);
  EXPECT_EQ(dst.plane(0).row(0)[0], 0);
  EXPECT_EQ(dst.plane(0).row(0)[15], 255);
  // The edge pixels move toward the middle.
  EXPECT_GT(dst.plane(0).row(0)[7], 0);
  EXPECT_LT(dst.plane(0).row(0)[8], 255);
  EXPECT_LT(dst.plane(0).row(0)[7], dst.plane(0).row(0)[8]);
}

// Sliced blur (any partition) equals whole-plane blur: the crossdep
// correctness property.
class SlicedBlurTest : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(SlicedBlurTest, SlicingIsTransparent) {
  auto [kernel, slices] = GetParam();
  media::SynthSpec spec{.seed = 9, .width = 48, .height = 36,
                        .format = PixelFormat::kGray};
  FramePtr src = media::make_synth_frame(spec, 1);
  Frame whole(PixelFormat::kGray, 48, 36);
  media::blur_v(src->plane(0), whole.plane(0), kernel, 0, 36);

  Frame sliced(PixelFormat::kGray, 48, 36);
  int row = 0;
  for (int s = 0; s < slices; ++s) {
    int rows = 36 / slices + (s < 36 % slices ? 1 : 0);
    media::blur_v(src->plane(0), sliced.plane(0), kernel, row, row + rows);
    row += rows;
  }
  EXPECT_TRUE(whole.equals(sliced));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SlicedBlurTest,
                         ::testing::Combine(::testing::Values(3, 5),
                                            ::testing::Values(1, 2, 5, 9,
                                                              36)));

// --- metrics -----------------------------------------------------------------

TEST(Metrics, PsnrIdenticalIsInfinite) {
  media::SynthSpec spec{.seed = 4, .width = 32, .height = 32};
  FramePtr a = media::make_synth_frame(spec, 0);
  EXPECT_TRUE(std::isinf(media::psnr(*a, *a)));
  EXPECT_EQ(media::max_abs_diff(*a, *a), 0);
}

TEST(Metrics, PsnrDropsWithNoise) {
  media::SynthSpec spec{.seed = 4, .width = 32, .height = 32};
  FramePtr a = media::make_synth_frame(spec, 0);
  FramePtr b = a->clone();
  b->plane(0).row(0)[0] = static_cast<uint8_t>(b->plane(0).row(0)[0] + 50);
  double one_pixel = media::psnr(*a, *b);
  EXPECT_GT(one_pixel, 40.0);
  for (int x = 0; x < 32; ++x)
    b->plane(0).row(1)[x] = static_cast<uint8_t>(b->plane(0).row(1)[x] + 50);
  EXPECT_LT(media::psnr(*a, *b), one_pixel);
  EXPECT_EQ(media::max_abs_diff(*a, *b), 50);
}

TEST(Metrics, FrameHashChainsAndDiscriminates) {
  media::SynthSpec spec{.seed = 4, .width = 32, .height = 32};
  FramePtr a = media::make_synth_frame(spec, 0);
  FramePtr b = media::make_synth_frame(spec, 1);
  uint64_t ha = media::frame_hash(*a);
  EXPECT_EQ(ha, media::frame_hash(*a));
  EXPECT_NE(ha, media::frame_hash(*b));
  EXPECT_NE(media::frame_hash(*b, ha), media::frame_hash(*a, ha));
}

// Frame shapes whose rows are not whole 8-byte words or whole lane
// groups, so every row has a tail and a partial group.
struct HashShape {
  PixelFormat format;
  int width;
  int height;
};

class FrameHashShapeTest : public ::testing::TestWithParam<HashShape> {
 protected:
  FramePtr frame() const {
    const HashShape& s = GetParam();
    return media::make_synth_frame(
        {.seed = 7, .width = s.width, .height = s.height, .format = s.format},
        3);
  }
};

TEST_P(FrameHashShapeTest, EveryBitFlipChangesTheHash) {
  FramePtr f = frame();
  const uint64_t base = media::frame_hash(*f);
  int flips = 0;
  for (int p = 0; p < f->planes(); ++p) {
    media::PlaneView pv = f->plane(p);
    for (int y = 0; y < pv.height; ++y) {
      for (int x = 0; x < pv.width; ++x) {
        for (int bit = 0; bit < 8; ++bit) {
          pv.row(y)[x] ^= static_cast<uint8_t>(1u << bit);
          EXPECT_NE(media::frame_hash(*f), base)
              << "plane " << p << " row " << y << " col " << x << " bit "
              << bit;
          pv.row(y)[x] ^= static_cast<uint8_t>(1u << bit);
          ++flips;
        }
      }
    }
  }
  EXPECT_EQ(static_cast<size_t>(flips), 8 * f->bytes());
  EXPECT_EQ(media::frame_hash(*f), base);
}

TEST_P(FrameHashShapeTest, SwappedPlanesChangeTheHash) {
  FramePtr f = frame();
  const uint64_t base = media::frame_hash(*f);
  // Only equally sized planes can trade places.
  for (int a = 0; a < f->planes(); ++a) {
    for (int b = a + 1; b < f->planes(); ++b) {
      media::PlaneView pa = f->plane(a);
      media::PlaneView pb = f->plane(b);
      if (pa.width != pb.width || pa.height != pb.height) continue;
      ASSERT_GT(media::mse(pa, pb), 0.0) << "planes " << a << ", " << b;
      for (int y = 0; y < pa.height; ++y)
        std::swap_ranges(pa.row(y), pa.row(y) + pa.width, pb.row(y));
      EXPECT_NE(media::frame_hash(*f), base) << "planes " << a << ", " << b;
      for (int y = 0; y < pa.height; ++y)
        std::swap_ranges(pa.row(y), pa.row(y) + pa.width, pb.row(y));
    }
  }
  EXPECT_EQ(media::frame_hash(*f), base);
}

TEST_P(FrameHashShapeTest, SeedChangesTheHash) {
  FramePtr f = frame();
  const uint64_t base = media::frame_hash(*f);
  for (uint64_t seed :
       {uint64_t{0}, uint64_t{1}, media::kFnvBasis ^ 1, ~uint64_t{0}})
    EXPECT_NE(media::frame_hash(*f, seed), base) << seed;
}

TEST_P(FrameHashShapeTest, PlaneDigestIgnoresStride) {
  FramePtr f = frame();
  for (int p = 0; p < f->planes(); ++p) {
    ConstPlaneView tight = f->plane(p);
    const int stride = tight.width + 5;
    std::vector<uint8_t> padded(static_cast<size_t>(stride) * tight.height,
                                0xA5);
    for (int y = 0; y < tight.height; ++y)
      std::copy(tight.row(y), tight.row(y) + tight.width,
                padded.data() + static_cast<size_t>(y) * stride);
    EXPECT_EQ(media::plane_digest({padded.data(), tight.width, tight.height,
                                   stride}),
              media::plane_digest(tight))
        << "plane " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, FrameHashShapeTest,
    ::testing::Values(HashShape{PixelFormat::kYuv420, 33, 17},
                      HashShape{PixelFormat::kYuv444, 31, 9},
                      HashShape{PixelFormat::kGray, 37, 5}),
    [](const ::testing::TestParamInfo<HashShape>& info) {
      const char* format = info.param.format == PixelFormat::kYuv420 ? "yuv420"
                           : info.param.format == PixelFormat::kYuv444
                               ? "yuv444"
                               : "gray";
      return std::string(format) + "_" + std::to_string(info.param.width) +
             "x" + std::to_string(info.param.height);
    });

// --- containers ----------------------------------------------------------------

TEST(RawVideo, SaveLoadRoundTrip) {
  media::SynthSpec spec{.seed = 21, .width = 48, .height = 32};
  media::RawVideo video = media::RawVideo::synthesize(spec, 5);
  std::string path = ::testing::TempDir() + "/clip.rawv";
  ASSERT_TRUE(video.save(path).is_ok());
  auto loaded = media::RawVideo::load(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded.value().frame_count(), 5);
  for (int i = 0; i < 5; ++i)
    EXPECT_TRUE(loaded.value().frame(i)->equals(*video.frame(i)));
}

TEST(RawVideo, LoadRejectsGarbage) {
  std::string path = ::testing::TempDir() + "/garbage.rawv";
  {
    std::ofstream f(path, std::ios::binary);
    f << "not a video";
  }
  EXPECT_FALSE(media::RawVideo::load(path).is_ok());
}

TEST(MjpegClip, SaveLoadRoundTrip) {
  media::SynthSpec spec{.seed = 22, .width = 48, .height = 32};
  media::RawVideo video = media::RawVideo::synthesize(spec, 3);
  auto clip = media::MjpegClip::encode(video, 80);
  ASSERT_TRUE(clip.is_ok()) << clip.status().to_string();
  std::string path = ::testing::TempDir() + "/clip.mjpg";
  ASSERT_TRUE(clip.value().save(path).is_ok());
  auto loaded = media::MjpegClip::load(path);
  ASSERT_TRUE(loaded.is_ok());
  ASSERT_EQ(loaded.value().frame_count(), 3);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(loaded.value().frame(i), clip.value().frame(i));
}

}  // namespace
