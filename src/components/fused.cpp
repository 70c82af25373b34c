// Fused-loop components: single components executing what is otherwise
// a chain of standard components, in one loop over a strip-sized
// scratch — the kernels the fuse-kernels pass (sp/fuse_kernels.hpp)
// rewrites matched chains into. Each is also an ordinary registered
// class, usable directly from XSPCL.
//
// Every fused component is bit-exact against the unfused chain it
// replaces (tests/test_kernels_equiv.cpp and the fused-program
// equivalence tests pin this), and charges the same arithmetic cycles
// as the chain's stages; what fusion changes is the memory traffic —
// the chain's linking packets become scratch strips, charged through
// touch_scratch/touch_scratch_read so the cache model prices the strip
// instead of the full frame round-trip.
#include <algorithm>

#include "components/components.hpp"
#include "components/detail.hpp"
#include "hinch/component.hpp"
#include "media/jpeg.hpp"
#include "media/kernels.hpp"
#include "sp/fuse_kernels.hpp"
#include "support/strings.hpp"

namespace components {
namespace {

using hinch::ExecContext;
using hinch::Packet;
using media::Frame;
using media::FramePtr;
using media::jpeg::CoeffImage;
using media::jpeg::CoeffPlane;

// Same accounting helpers as jpeg_stages.cpp / filters.cpp.
uint64_t coeff_bytes(const CoeffImage& img) {
  uint64_t total = 0;
  for (const auto& c : img.comps)
    total += c.blocks.size() * sizeof(std::array<int16_t, 64>);
  return total;
}

void charge_touch_rows(ExecContext& ctx, bool is_input, int port,
                       const Frame& f, int plane, int row0, int row1) {
  media::ConstPlaneView v = f.plane(plane);
  if (row1 <= row0) return;
  uint64_t offset =
      f.plane_offset(plane) +
      static_cast<uint64_t>(row0) * static_cast<uint64_t>(v.width);
  uint64_t len =
      static_cast<uint64_t>(row1 - row0) * static_cast<uint64_t>(v.width);
  if (is_input) {
    ctx.touch_read(port, offset, len);
  } else {
    ctx.touch_write(port, offset, len);
  }
}

// --- jpeg_decode_planes ------------------------------------------------------
//
// jpeg_decode + the three per-plane IDCTs as ONE component: the
// coefficient image lives in a private buffer that never crosses a
// stream — charged as scratch (one decode write pass, one IDCT read
// pass) instead of a parked multi-megabyte packet. This is the loop
// fusion of the JPiP decode chain; the hand-written sequential decoder
// (apps::run_jpip_sequential) has exactly this memory behaviour.
class JpegDecodePlanesComponent : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::ComponentConfig&) {
    return std::unique_ptr<hinch::Component>(new JpegDecodePlanesComponent());
  }

  JpegDecodePlanesComponent()
      : in_(declare_input("jpeg")),
        outs_{declare_output("y"), declare_output("u"), declare_output("v")} {}

  void run(ExecContext& ctx) override {
    auto bytes = ctx.read(in_).get<std::vector<uint8_t>>();
    // Same buffer reuse as JpegDecodeComponent — and since the image
    // never leaves this component, the spare is always reusable.
    if (!spare_ || spare_.use_count() != 1)
      spare_ = std::make_shared<CoeffImage>();
    auto img = spare_;
    support::Status st = media::jpeg::decode_to_coefficients_into(
        bytes->data(), bytes->size(), img.get());
    SUP_CHECK_MSG(st.is_ok(), st.to_string().c_str());
    SUP_CHECK_MSG(img->comps.size() == 3,
                  "jpeg_decode_planes: stream is not YUV");
    uint64_t blocks = 0;
    for (const auto& c : img->comps) blocks += c.blocks.size();
    uint64_t cycles =
        media::jpeg::entropy_decode_cycles(bytes->size(), blocks);
    for (int p = 0; p < 3; ++p) {
      const CoeffPlane& comp = img->comps[static_cast<size_t>(p)];
      FramePtr dst = output_stream(outs_[p])->get_or_alloc_frame(
          ctx.iteration(), media::PixelFormat::kGray, comp.width,
          comp.height);
      media::jpeg::idct_component(comp, dst->plane(0), 0, comp.blocks_h);
      cycles += media::jpeg::idct_cycles(comp.blocks.size());
      ctx.touch_write(outs_[p], 0, dst->plane(0).bytes());
    }
    ctx.touch_read(in_, 0, bytes->size());
    // The coefficient store: written by the entropy decode, read back by
    // the IDCTs — still warm, and never a stream packet.
    uint64_t cb = coeff_bytes(*img);
    ctx.touch_scratch(cb);
    ctx.touch_scratch_read(cb);
    ctx.charge_compute(cycles);
  }

 private:
  int in_;
  int outs_[3];
  std::shared_ptr<CoeffImage> spare_;
};

// --- downscale_blend ---------------------------------------------------------
//
// downscale + blend in one traversal (media::downscale_blend) — the
// paper's §4.1 hand-written PiP kernel. The downscaled foreground never
// materializes; sliced by downscaled-foreground rows exactly like the
// unfused pair, so per-band fusion is exact.
class DownscaleBlendComponent : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::ComponentConfig& config) {
    SUP_ASSIGN_OR_RETURN(int64_t factor,
                         hinch::param_int(config.params, "factor"));
    if (factor < 1 || factor > 256)
      return support::invalid_argument(
          "downscale_blend: factor must be in [1,256]");
    auto comp = std::unique_ptr<DownscaleBlendComponent>(
        new DownscaleBlendComponent(static_cast<int>(factor)));
    comp->src_plane_ = static_cast<int>(
        hinch::param_int_or(config.params, "src_plane", -1));
    comp->x_ = static_cast<int>(hinch::param_int_or(config.params, "x", 0));
    comp->y_ = static_cast<int>(hinch::param_int_or(config.params, "y", 0));
    comp->alpha_ =
        static_cast<int>(hinch::param_int_or(config.params, "alpha", 256));
    comp->plane_ =
        static_cast<int>(hinch::param_int_or(config.params, "plane", -1));
    if (comp->alpha_ < 0 || comp->alpha_ > 256)
      return support::invalid_argument(
          "downscale_blend: alpha must be in [0,256]");
    return support::Result<std::unique_ptr<hinch::Component>>(
        std::move(comp));
  }

  explicit DownscaleBlendComponent(int factor)
      : in_(declare_input("in")),
        canvas_(declare_output("canvas")),
        factor_(factor) {}

  // Same request the unfused blend honours, so reconfiguration keeps
  // working across the rewrite.
  void reconfigure(std::string_view request) override {
    auto req = std::string(request);
    if (support::starts_with(req, "pos=")) {
      auto parts = support::split(req.substr(4), ',');
      if (parts.size() == 2) {
        auto x = support::parse_int(parts[0]);
        auto y = support::parse_int(parts[1]);
        if (x.is_ok() && y.is_ok()) {
          x_ = static_cast<int>(x.value());
          y_ = static_cast<int>(y.value());
        }
      }
    }
  }

  void run(ExecContext& ctx) override {
    FramePtr src = ctx.read(in_).frame();
    Packet& slot = ctx.inout(canvas_);
    FramePtr canvas = slot.frame();
    SUP_CHECK_MSG(src_plane_ < src->planes(),
                  "downscale_blend: no such plane");
    const int target = canvas->planes() == 1 ? 0 : std::max(plane_, 0);
    if (src_plane_ >= 0 || src->planes() == 1) {
      fuse_plane(ctx, *src, std::max(src_plane_, 0), *canvas, target);
    } else if (plane_ >= 0) {
      fuse_plane(ctx, *src, plane_, *canvas, target);
    } else {
      // Whole-frame chain (neither side names a plane): like the unfused
      // pair, each source plane lands on the matching canvas plane.
      SUP_CHECK(canvas->planes() == src->planes());
      for (int p = 0; p < src->planes(); ++p)
        fuse_plane(ctx, *src, p, *canvas, p);
    }
  }

 private:
  void fuse_plane(ExecContext& ctx, const Frame& src, int sp_idx,
                  Frame& canvas, int target) {
    media::ConstPlaneView sp = src.plane(sp_idx);
    media::PlaneView c = canvas.plane(target);
    // Luma-space offset scaled into the target plane's coordinate space
    // (same arithmetic as the unfused blend).
    int px = canvas.width() ? x_ * c.width / canvas.width() : x_;
    int py = canvas.height() ? y_ * c.height / canvas.height() : y_;
    int sh = sp.height / factor_;
    int sw = sp.width / factor_;
    int r0 = 0, r1 = 0;
    hinch::slice_rows(sh, slice_index(), slice_count(), &r0, &r1);
    media::downscale_blend(sp, c, factor_, px, py, alpha_, py + r0, py + r1);
    ctx.charge_compute(media::downscale_blend_cycles(sw, r1 - r0, factor_));
    charge_touch_rows(ctx, true, in_, src, sp_idx, r0 * factor_,
                      r1 * factor_);
    int c0 = std::clamp(py + r0, 0, c.height);
    int c1 = std::clamp(py + r1, 0, c.height);
    charge_touch_rows(ctx, false, canvas_, canvas, target, c0, c1);
  }

  int in_;
  int canvas_;
  int factor_;
  int src_plane_ = -1;
  int x_ = 0;
  int y_ = 0;
  int alpha_ = 256;
  int plane_ = -1;
};

// --- fusion pattern rewrites -------------------------------------------------

const std::string* binding(const std::vector<sp::PortBinding>& bindings,
                           const std::string& port) {
  for (const sp::PortBinding& b : bindings)
    if (b.port == port) return &b.stream;
  return nullptr;
}

std::string param_or(const sp::LeafSpec& leaf, const std::string& name,
                     const std::string& fallback) {
  for (const sp::Param& p : leaf.params)
    if (p.name == name) return p.value;
  return fallback;
}

std::string joined_instance(const std::vector<const sp::LeafSpec*>& specs) {
  std::string name;
  for (const sp::LeafSpec* s : specs) {
    if (!name.empty()) name += "+";
    name += s->instance;
  }
  return name;
}

support::Status unsupported(const char* what) {
  return support::invalid_argument(what);
}

// downscale -> blend  =>  downscale_blend
support::Result<sp::LeafSpec> rewrite_downscale_blend(
    const std::vector<const sp::LeafSpec*>& specs) {
  const sp::LeafSpec& ds = *specs[0];
  const sp::LeafSpec& bl = *specs[1];
  const std::string* in = binding(ds.inputs, "in");
  const std::string* canvas = binding(bl.outputs, "canvas");
  if (!in || !canvas)
    return unsupported("downscale_blend fusion: missing port binding");
  if (!ds.initial_reconfig.empty())
    return unsupported("downscale_blend fusion: downscale has a reconfig");
  sp::LeafSpec fused;
  fused.instance = joined_instance(specs);
  fused.klass = "downscale_blend";
  fused.params = {{"factor", param_or(ds, "factor", "1")},
                  {"src_plane", param_or(ds, "plane", "-1")},
                  {"x", param_or(bl, "x", "0")},
                  {"y", param_or(bl, "y", "0")},
                  {"alpha", param_or(bl, "alpha", "256")},
                  {"plane", param_or(bl, "plane", "-1")}};
  fused.inputs = {{"in", *in}};
  fused.outputs = {{"canvas", *canvas}};
  fused.initial_reconfig = bl.initial_reconfig;
  return fused;
}

// jpeg_decode -> idct x3  =>  jpeg_decode_planes
support::Result<sp::LeafSpec> rewrite_jpeg_decode_planes(
    const std::vector<const sp::LeafSpec*>& specs) {
  const sp::LeafSpec& dec = *specs[0];
  const std::string* jpeg = binding(dec.inputs, "jpeg");
  if (!jpeg)
    return unsupported("jpeg_decode_planes fusion: missing port binding");
  // The fused decode emits y/u/v in plane order; any other plane
  // assignment has no fused kernel.
  const char* ports[3] = {"y", "u", "v"};
  std::vector<sp::PortBinding> outs;
  for (int p = 0; p < 3; ++p) {
    const sp::LeafSpec& idct = *specs[static_cast<size_t>(p) + 1];
    if (param_or(idct, "plane", "0") != std::to_string(p))
      return unsupported("jpeg_decode_planes fusion: planes not 0,1,2");
    const std::string* out = binding(idct.outputs, "out");
    if (!out)
      return unsupported("jpeg_decode_planes fusion: missing port binding");
    outs.push_back({ports[p], *out});
  }
  sp::LeafSpec fused;
  fused.instance = joined_instance(specs);
  fused.klass = "jpeg_decode_planes";
  fused.inputs = {{"jpeg", *jpeg}};
  fused.outputs = std::move(outs);
  return fused;
}

}  // namespace

void register_fused(hinch::ComponentRegistry& registry) {
  registry.register_class("jpeg_decode_planes",
                          &JpegDecodePlanesComponent::create);
  registry.register_class("downscale_blend",
                          &DownscaleBlendComponent::create);
}

const sp::KernelFusionRegistry& standard_fusions() {
  static const sp::KernelFusionRegistry* registry = [] {
    auto* r = new sp::KernelFusionRegistry();
    r->add({"jpeg_decode_planes",
            {"jpeg_decode", "idct", "idct", "idct"},
            &rewrite_jpeg_decode_planes});
    r->add({"downscale_blend",
            {"downscale", "blend"},
            &rewrite_downscale_blend});
    return r;
  }();
  return *registry;
}

}  // namespace components
