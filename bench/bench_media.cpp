// Media hot-path microbench: wall-clock (host) cost of the JPEG decode
// phases and the pixel kernels, before/after the table-driven Huffman +
// fixed-point AAN + border-split rewrites. Emits machine-readable
// BENCH_kernels.json so the perf trajectory is tracked commit by commit; its
// context block names the dispatch tier, the mode, the CPU model, the
// core count and the source commit.
//
// This measures HOST time only. The simulated-cycle model the figure
// benches (fig8/9/10) report is a separate, deliberately unchanged layer
// — see docs/PERF.md for the split.
//
// Usage: bench_media [--smoke] [output.json]   (default ./BENCH_kernels.json)
//   --smoke: fewer reps and frames; same rows and gates, CI-friendly cost.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "media/frame.hpp"
#include "media/jpeg.hpp"
#include "media/kernels.hpp"
#include "media/mjpeg.hpp"
#include "media/synth.hpp"
#include "support/check.hpp"
#include "support/strings.hpp"

namespace {

using bench::best_ms;
using bench::best_ms_pair;

bench::BenchReport g_report("bench_media");

bool g_smoke = false;

// Best-of rep counts; --smoke trims them without changing what is
// measured (best-of-2 is noisier but the gates keep generous margins).
int reps(int full) { return g_smoke ? 2 : full; }

void add_row(const std::string& name, double baseline_ms,
             double optimized_ms, const std::string& unit) {
  g_report.add(name, baseline_ms, optimized_ms, unit);
}

// --- host context -----------------------------------------------------------

// Printable ASCII other than quotes and backslashes, so the value can sit
// in a JSON string as is.
std::string json_safe(const std::string& s) {
  std::string out;
  for (char c : s)
    if (c >= 0x20 && c < 0x7f && c != '"' && c != '\\') out += c;
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    return json_safe(std::string(support::trim(line.substr(colon + 1))));
  }
  return "unknown";
}

// --- decode phases on a 1080p synthetic MJPEG stream ------------------------

void bench_decode() {
  const int kFrames = 4;
  media::SynthSpec spec{.seed = 42, .width = 1920, .height = 1080,
                        .format = media::PixelFormat::kYuv420};
  media::RawVideo raw = media::RawVideo::synthesize(spec, kFrames);
  auto clip = media::MjpegClip::encode(raw, 75);
  SUP_CHECK(clip.is_ok());
  const media::MjpegClip& mj = clip.value();
  std::printf("1080p synthetic MJPEG: %d frames, %zu compressed bytes\n",
              mj.frame_count(), mj.total_bytes());

  // Headline: full frame decode (entropy decode + IDCT of every plane),
  // old implementation (bit-at-a-time Huffman walk, float reference
  // IDCT, fresh buffers per frame) against the new hot path
  // (table-driven Huffman through the streaming buffer-reuse API,
  // fixed-point AAN IDCT).
  media::jpeg::CoeffImage reuse;
  std::vector<media::FramePtr> outs;
  auto idct_planes = [&](const media::jpeg::CoeffImage& img,
                         media::jpeg::IdctImpl impl) {
    if (outs.empty())
      for (int p = 0; p < media::plane_count(img.format); ++p)
        outs.push_back(media::make_frame(media::PixelFormat::kGray,
                                         img.comps[static_cast<size_t>(p)].width,
                                         img.comps[static_cast<size_t>(p)].height));
    for (int p = 0; p < media::plane_count(img.format); ++p) {
      const auto& cp = img.comps[static_cast<size_t>(p)];
      media::jpeg::idct_component(cp, outs[static_cast<size_t>(p)]->plane(0),
                                  0, cp.blocks_h, impl);
    }
  };
  auto decode_old = [&] {
    for (int i = 0; i < mj.frame_count(); ++i) {
      const auto& bytes = mj.frame(i);
      auto coeffs = media::jpeg::decode_to_coefficients(
          bytes.data(), bytes.size(), media::jpeg::HuffmanImpl::kBitSerial);
      SUP_CHECK(coeffs.is_ok());
      idct_planes(coeffs.value(), media::jpeg::IdctImpl::kFloatReference);
    }
  };
  auto decode_new = [&] {
    for (int i = 0; i < mj.frame_count(); ++i) {
      const auto& bytes = mj.frame(i);
      support::Status st = media::jpeg::decode_to_coefficients_into(
          bytes.data(), bytes.size(), &reuse,
          media::jpeg::HuffmanImpl::kLookupTable);
      SUP_CHECK(st.is_ok());
      idct_planes(reuse, media::jpeg::IdctImpl::kFixedPoint);
    }
  };
  auto [old_ms, new_ms] = best_ms_pair(reps(7), decode_old, decode_new);
  add_row("jpeg_decode_1080p", old_ms, new_ms,
          "full decode (entropy + IDCT) of 4 1080p frames");

  // Attribution row: entropy decode alone, same streaming buffer reuse
  // on both sides, so the delta is purely the bit-reader + lookup table.
  auto entropy_only = [&](media::jpeg::HuffmanImpl impl) {
    for (int i = 0; i < mj.frame_count(); ++i) {
      const auto& bytes = mj.frame(i);
      support::Status st = media::jpeg::decode_to_coefficients_into(
          bytes.data(), bytes.size(), &reuse, impl);
      SUP_CHECK(st.is_ok());
    }
  };
  auto [serial_stream, fast_stream] = best_ms_pair(
      reps(5), [&] { entropy_only(media::jpeg::HuffmanImpl::kBitSerial); },
      [&] { entropy_only(media::jpeg::HuffmanImpl::kLookupTable); });
  add_row("huffman_engine_only", serial_stream, fast_stream,
          "entropy decode of 4 1080p frames");

  // IDCT over the luma plane of one decoded frame.
  const auto& bytes = mj.frame(0);
  auto coeffs =
      media::jpeg::decode_to_coefficients(bytes.data(), bytes.size());
  SUP_CHECK(coeffs.is_ok());
  const media::jpeg::CoeffPlane& y = coeffs.value().comps[0];
  media::Frame out(media::PixelFormat::kGray, y.width, y.height);
  auto idct_all = [&](media::jpeg::IdctImpl impl) {
    media::jpeg::idct_component(y, out.plane(0), 0, y.blocks_h, impl);
  };
  auto [f_ref, fixed] = best_ms_pair(
      reps(10), [&] { idct_all(media::jpeg::IdctImpl::kFloatReference); },
      [&] { idct_all(media::jpeg::IdctImpl::kFixedPoint); });
  add_row("idct_1080p_luma", f_ref, fixed, "IDCT of one 1080p luma plane");
}

// --- pixel kernels ----------------------------------------------------------

// Naive clamp-everywhere references, mirroring the pre-optimization
// kernel bodies (same structure as tests/test_kernels_equiv.cpp).
int clampi(int v, int lo, int hi) { return v < lo ? lo : (v > hi ? hi : v); }

void ref_blur_h(media::ConstPlaneView src, media::PlaneView dst, int k) {
  const int16_t* taps = media::gaussian_taps(k);
  const int r = k / 2;
  for (int y = 0; y < dst.height; ++y) {
    const uint8_t* in = src.row(y);
    uint8_t* out = dst.row(y);
    for (int x = 0; x < dst.width; ++x) {
      int acc = 128;
      for (int t = -r; t <= r; ++t)
        acc += taps[t + r] * in[clampi(x + t, 0, src.width - 1)];
      out[x] = static_cast<uint8_t>(acc >> 8);
    }
  }
}

void ref_blur_v(media::ConstPlaneView src, media::PlaneView dst, int k) {
  const int16_t* taps = media::gaussian_taps(k);
  const int r = k / 2;
  for (int y = 0; y < dst.height; ++y) {
    uint8_t* out = dst.row(y);
    for (int x = 0; x < dst.width; ++x) {
      int acc = 128;
      for (int t = -r; t <= r; ++t)
        acc += taps[t + r] *
               src.row(clampi(y + t, 0, src.height - 1))[x];
      out[x] = static_cast<uint8_t>(acc >> 8);
    }
  }
}

void ref_downscale_box(media::ConstPlaneView src, media::PlaneView dst,
                       int factor) {
  for (int y = 0; y < dst.height; ++y) {
    uint8_t* out = dst.row(y);
    for (int x = 0; x < dst.width; ++x) {
      unsigned sum = 0;
      for (int dy = 0; dy < factor; ++dy) {
        const uint8_t* row = src.row(y * factor + dy) + x * factor;
        for (int dx = 0; dx < factor; ++dx) sum += row[dx];
      }
      unsigned n = static_cast<unsigned>(factor * factor);
      out[x] = static_cast<uint8_t>((sum + n / 2) / n);
    }
  }
}

// Separate downscale-then-blend, the pre-fusion formulation.
void ref_downscale_blend(media::ConstPlaneView src, media::PlaneView dst,
                         media::PlaneView scratch, int factor, int dst_x,
                         int dst_y, int alpha) {
  ref_downscale_box(src, scratch, factor);
  media::blend(media::ConstPlaneView{scratch.data, scratch.width,
                                     scratch.height, scratch.stride},
               dst, dst_x, dst_y, alpha, 0, dst.height);
}

void bench_kernels() {
  const int w = 1920, h = 1080;
  media::SynthSpec spec{.seed = 7, .width = w, .height = h,
                        .format = media::PixelFormat::kGray};
  media::FramePtr src = media::make_synth_frame(spec, 0);
  media::Frame dst(media::PixelFormat::kGray, w, h);

  for (int k : {3, 5}) {
    auto [base_h, opt_h] = best_ms_pair(
        reps(5), [&] { ref_blur_h(src->plane(0), dst.plane(0), k); },
        [&] { media::blur_h(src->plane(0), dst.plane(0), k, 0, h); });
    add_row("blur_h_k" + std::to_string(k), base_h, opt_h, "1080p plane");
    auto [base_v, opt_v] = best_ms_pair(
        reps(5), [&] { ref_blur_v(src->plane(0), dst.plane(0), k); },
        [&] { media::blur_v(src->plane(0), dst.plane(0), k, 0, h); });
    add_row("blur_v_k" + std::to_string(k), base_v, opt_v, "1080p plane");
  }

  for (int factor : {2, 4}) {
    media::Frame small(media::PixelFormat::kGray, w / factor, h / factor);
    auto [base, opt] = best_ms_pair(
        reps(10),
        [&] { ref_downscale_box(src->plane(0), small.plane(0), factor); },
        [&] {
          media::downscale_box(src->plane(0), small.plane(0), factor, 0,
                               h / factor);
        });
    add_row("downscale_box_f" + std::to_string(factor), base, opt,
            "1080p plane");
  }

  // Naive scalar downscale-then-blend vs the fused dispatched kernel:
  // the historical pre-optimization comparison.
  {
    const int factor = 2;
    media::Frame scratch(media::PixelFormat::kGray, w / factor, h / factor);
    auto [base, opt] = best_ms_pair(
        reps(10),
        [&] {
          ref_downscale_blend(src->plane(0), dst.plane(0), scratch.plane(0),
                              factor, 16, 16, 192);
        },
        [&] {
          media::downscale_blend(src->plane(0), dst.plane(0), factor, 16, 16,
                                 192, 0, h);
        });
    add_row("downscale_blend_f2", base, opt,
            "1080p plane, fused vs naive scalar 2-pass");
  }

  // Fused kernel vs its OWN 2-pass composition, both legs under the
  // active dispatch tier: downscale_box into a scratch plane, then blend
  // the scratch over dst. Fusion must never lose to the composition it
  // replaces — main() gates this row at >= 1.0x. (The fused win is the
  // elided scratch store/reload plus one loop pass, so the expected
  // ratio is modest, ~1.1-1.3x, on every tier.)
  {
    const int factor = 2;
    media::Frame scratch(media::PixelFormat::kGray, w / factor, h / factor);
    media::PlaneView sp = scratch.plane(0);
    // One rep is ~0.3 ms, so a high interleaved count is cheap; the
    // gate below needs a stable minimum even in --smoke runs.
    auto [base, opt] = best_ms_pair(
        40,
        [&] {
          media::downscale_box(src->plane(0), sp, factor, 0, h / factor);
          media::blend(media::ConstPlaneView{sp.data, sp.width, sp.height,
                                             sp.stride},
                       dst.plane(0), 16, 16, 192, 0, h);
        },
        [&] {
          media::downscale_blend(src->plane(0), dst.plane(0), factor, 16, 16,
                                 192, 0, h);
        });
    add_row("downscale_blend_f2_vs_simd2pass", base, opt,
            "1080p plane, fused vs dispatched 2-pass");
  }

}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      g_smoke = true;
    else
      out = argv[i];
  }
  g_report.add_context(
      "dispatch",
      media::kernel_dispatch_name(media::active_kernel_dispatch()));
  g_report.add_context("mode", g_smoke ? "smoke" : "full");
  g_report.add_context("cpu", cpu_model());
  g_report.add_context("nproc",
                       std::to_string(std::thread::hardware_concurrency()));
  // `git describe --always --dirty` when the build was configured.
  g_report.add_context("commit", HINCH_SOURCE_COMMIT);
  bench_decode();
  bench_kernels();
  g_report.write_json(out);
  // The headline acceptance bar: the new decode path must be at least
  // 3x the old bit-at-a-time decoder on the 1080p stream. On the scalar
  // tier (forced, or an x86 host without AVX2) there is no vector IDCT
  // and the entropy rewrite alone carries the row, so the bar drops to
  // 2x.
  const bool scalar_only =
      media::active_kernel_dispatch() == media::KernelDispatch::kScalar;
  const double bar = scalar_only ? 2.0 : 3.0;
  double headline = g_report.speedup_of("jpeg_decode_1080p");
  if (headline < bar) {
    std::printf("FAIL: jpeg_decode_1080p speedup %.2fx < %.0fx\n", headline,
                bar);
    return 1;
  }
  // Fusion bar: the fused downscale+blend kernel must never lose to its
  // own dispatched 2-pass composition.
  double fused = g_report.speedup_of("downscale_blend_f2_vs_simd2pass");
  if (fused < 1.0) {
    std::printf("FAIL: downscale_blend_f2 fused %.2fx slower than its "
                "dispatched 2-pass composition\n", fused);
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
