// Pixel-processing components: copy, downscale, blend, separable blur.
#include <algorithm>

#include "components/detail.hpp"
#include "hinch/component.hpp"
#include "media/kernels.hpp"
#include "support/strings.hpp"

namespace components {
namespace {

using hinch::ExecContext;
using hinch::Packet;
using media::Frame;
using media::FramePtr;

// --- copy --------------------------------------------------------------------

// Full-frame copy; the "background video is simply copied" component of
// PiP (§4). Sliced: each copy handles a horizontal band of every plane.
class CopyComponent : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::Params&) {
    return std::unique_ptr<hinch::Component>(new CopyComponent());
  }

  void run(ExecContext& ctx) override {
    FramePtr src = ctx.read(kIn).frame();
    FramePtr dst = output_stream(kOut)->get_or_alloc_frame(
        ctx.iteration(), src->format(), src->width(), src->height());
    for (int p = 0; p < src->planes(); ++p) {
      media::ConstPlaneView sp = src->plane(p);
      int r0 = 0, r1 = 0;
      hinch::slice_rows(sp.height, slice_index(), slice_count(), &r0, &r1);
      media::copy_plane(sp, dst->plane(p), r0, r1);
      ctx.charge_compute(media::copy_cycles(sp.width, r1 - r0));
      charge_touch_rows(ctx, true, kIn, *src, p, r0, r1);
      charge_touch_rows(ctx, false, kOut, *dst, p, r0, r1);
    }
  }
};

// --- downscale ---------------------------------------------------------------

// Spatial down scaler (§3.1's running example). plane=-1: all planes,
// plane=p: that plane only, to a gray frame.
class DownscaleComponent : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::Params& params) {
    return std::unique_ptr<hinch::Component>(new DownscaleComponent(
        static_cast<int>(params.get_int("factor")),
        static_cast<int>(params.get_int("plane"))));
  }

  DownscaleComponent(int factor, int plane) : factor_(factor), plane_(plane) {}

  void run(ExecContext& ctx) override {
    FramePtr src = ctx.read(kIn).frame();
    if (plane_ >= 0) {
      SUP_CHECK_MSG(plane_ < src->planes(), "downscale: no such plane");
      media::ConstPlaneView sp = src->plane(plane_);
      FramePtr dst = output_stream(kOut)->get_or_alloc_frame(
          ctx.iteration(), media::PixelFormat::kGray, sp.width / factor_,
          sp.height / factor_);
      scale_plane(ctx, *src, plane_, sp, *dst, dst->plane(0));
    } else {
      FramePtr dst = output_stream(kOut)->get_or_alloc_frame(
          ctx.iteration(), src->format(), src->width() / factor_,
          src->height() / factor_);
      for (int p = 0; p < src->planes(); ++p)
        scale_plane(ctx, *src, p, src->plane(p), *dst, dst->plane(p));
    }
  }

 private:
  void scale_plane(ExecContext& ctx, const Frame& src_frame, int src_plane,
                   media::ConstPlaneView sp, Frame& dst_frame,
                   media::PlaneView dp) {
    int r0 = 0, r1 = 0;
    hinch::slice_rows(dp.height, slice_index(), slice_count(), &r0, &r1);
    media::downscale_box(sp, dp, factor_, r0, r1);
    ctx.charge_compute(media::downscale_cycles(dp.width, r1 - r0, factor_));
    charge_touch_rows(ctx, true, kIn, src_frame, src_plane, r0 * factor_,
                      r1 * factor_);
    int dst_plane_idx = dst_frame.planes() == 1 ? 0 : src_plane;
    charge_touch_rows(ctx, false, kOut, dst_frame, dst_plane_idx, r0, r1);
  }

  int factor_;
  int plane_;
};

// --- blend -------------------------------------------------------------------

// Alpha-blends the foreground over the canvas stream in place. The
// canvas must have been produced earlier in the iteration (copy / idct).
// Reconfiguration request "pos=X,Y" moves the blended picture — the
// paper's example of a reconfigurable picture-in-picture blender (§3.1).
class BlendComponent : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::Params& params) {
    auto comp = std::unique_ptr<BlendComponent>(new BlendComponent());
    comp->x_ = static_cast<int>(params.get_int("x"));
    comp->y_ = static_cast<int>(params.get_int("y"));
    comp->alpha_ = static_cast<int>(params.get_int("alpha"));
    comp->plane_ = static_cast<int>(params.get_int("plane"));
    return support::Result<std::unique_ptr<hinch::Component>>(
        std::move(comp));
  }

  void reconfigure(std::string_view request) override {
    parse_pos(request, &x_, &y_);
  }

  void run(ExecContext& ctx) override {
    FramePtr fg = ctx.read(kFg).frame();
    Packet& slot = ctx.inout(kCanvas);
    FramePtr canvas = slot.frame();

    if (fg->planes() > 1 && plane_ < 0) {
      // Full-frame blend: each fg plane onto the matching canvas plane,
      // with coordinates scaled by the plane's subsampling.
      SUP_CHECK(canvas->planes() == fg->planes());
      for (int p = 0; p < fg->planes(); ++p)
        blend_plane(ctx, *fg, p, *canvas, p);
    } else {
      int target = canvas->planes() == 1 ? 0 : std::max(plane_, 0);
      blend_plane(ctx, *fg, fg->planes() == 1 ? 0 : std::max(plane_, 0),
                  *canvas, target);
    }
  }

 private:
  void blend_plane(ExecContext& ctx, const Frame& fg, int fp, Frame& canvas,
                   int cp) {
    media::ConstPlaneView f = fg.plane(fp);
    media::PlaneView c = canvas.plane(cp);
    // Scale the luma-space offset into this plane's coordinate space.
    int px = canvas.width() ? x_ * c.width / canvas.width() : x_;
    int py = canvas.height() ? y_ * c.height / canvas.height() : y_;
    int r0 = 0, r1 = 0;
    hinch::slice_rows(f.height, slice_index(), slice_count(), &r0, &r1);
    media::blend(f, c, px, py, alpha_, py + r0, py + r1);
    ctx.charge_compute(media::blend_cycles(f.width, r1 - r0));
    charge_touch_rows(ctx, true, kFg, fg, fp, r0, r1);
    int c0 = std::clamp(py + r0, 0, c.height);
    int c1 = std::clamp(py + r1, 0, c.height);
    charge_touch_rows(ctx, false, kCanvas, canvas, cp, c0, c1);
  }

  static constexpr int kFg = 0;
  static constexpr int kCanvas = 0;
  int x_ = 0;
  int y_ = 0;
  int alpha_ = 256;
  int plane_ = -1;
};

// --- separable Gaussian blur ----------------------------------------------------

// One pass (horizontal or vertical) of the Blur application (§4). The
// two passes run as crossdep parblocks (Fig. 5). Output is the blurred
// plane as a gray frame.
class BlurComponent : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::Params& params, bool horizontal) {
    int kernel = static_cast<int>(params.get_int("kernel"));
    if (kernel != 3 && kernel != 5)
      return support::invalid_argument("blur: kernel must be 3 or 5");
    return std::unique_ptr<hinch::Component>(new BlurComponent(
        horizontal, kernel, static_cast<int>(params.get_int("plane"))));
  }

  BlurComponent(bool horizontal, int kernel, int plane)
      : horizontal_(horizontal), kernel_(kernel), plane_(plane) {}

  void reconfigure(std::string_view request) override {
    auto req = std::string(request);
    if (support::starts_with(req, "kernel=")) {
      auto k = support::parse_int(req.substr(7));
      if (k.is_ok() && (k.value() == 3 || k.value() == 5))
        kernel_ = static_cast<int>(k.value());
    }
  }

  int kernel() const { return kernel_; }

  void run(ExecContext& ctx) override {
    FramePtr src = ctx.read(kIn).frame();
    int plane = src->planes() == 1 ? 0 : plane_;
    SUP_CHECK_MSG(plane < src->planes(), "blur: no such plane");
    media::ConstPlaneView sp = src->plane(plane);
    FramePtr dst = output_stream(kOut)->get_or_alloc_frame(
        ctx.iteration(), media::PixelFormat::kGray, sp.width, sp.height);
    int r0 = 0, r1 = 0;
    hinch::slice_rows(sp.height, slice_index(), slice_count(), &r0, &r1);
    if (horizontal_) {
      media::blur_h(sp, dst->plane(0), kernel_, r0, r1);
      charge_touch_rows(ctx, true, kIn, *src, plane, r0, r1);
    } else {
      media::blur_v(sp, dst->plane(0), kernel_, r0, r1);
      // The vertical pass reads a halo of kernel_/2 rows above and below
      // its band — the cross dependencies of Fig. 5 exist exactly to
      // make the neighbouring slices' data available.
      int halo = kernel_ / 2;
      charge_touch_rows(ctx, true, kIn, *src, plane,
                 std::max(0, r0 - halo), std::min(sp.height, r1 + halo));
    }
    ctx.charge_compute(media::blur_cycles(sp.width, r1 - r0, kernel_));
    charge_touch_rows(ctx, false, kOut, *dst, 0, r0, r1);
  }

 private:
  bool horizontal_;
  int kernel_;
  int plane_;
};

}  // namespace

void register_filters(hinch::ComponentRegistry& registry) {
  using hinch::int_param;
  registry.register_class(
      {"copy", &CopyComponent::create, {"in"}, {"out"}, {}});
  registry.register_class({"downscale", &DownscaleComponent::create, {"in"},
                           {"out"}, downscale_params()});
  registry.register_class({"blend", &BlendComponent::create, {"fg"},
                           {"canvas"}, blend_params()});
  for (bool horizontal : {true, false})
    registry.register_class(
        {horizontal ? "blur_h" : "blur_v",
         [horizontal](const hinch::Params& params) {
           return BlurComponent::create(params, horizontal);
         },
         {"in"},
         {"out"},
         {int_param("kernel", 3, 5, 3), int_param("plane", 0, 2, 0)}});
}

std::vector<hinch::ParamSpec> downscale_params() {
  return {hinch::int_param("factor", 1, 256,
                           hinch::ParamSpec::Presence::kRequired),
          hinch::int_param("plane", -1, 2, -1)};
}

std::vector<hinch::ParamSpec> blend_params() {
  using hinch::int_param;
  return {int_param("x", -kMaxSide, kMaxSide, 0),
          int_param("y", -kMaxSide, kMaxSide, 0),
          int_param("alpha", 0, 256, 256), int_param("plane", -1, 2, -1)};
}

}  // namespace components
