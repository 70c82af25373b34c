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
      const hinch::Params&) {
    return std::unique_ptr<hinch::Component>(new JpegDecodePlanesComponent());
  }

  void run(ExecContext& ctx) override {
    auto bytes = ctx.read(kIn).get<std::vector<uint8_t>>();
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
      FramePtr dst = output_stream(p)->get_or_alloc_frame(
          ctx.iteration(), media::PixelFormat::kGray, comp.width,
          comp.height);
      media::jpeg::idct_component(comp, dst->plane(0), 0, comp.blocks_h);
      cycles += media::jpeg::idct_cycles(comp.blocks.size());
      ctx.touch_write(p, 0, dst->plane(0).bytes());
    }
    ctx.touch_read(kIn, 0, bytes->size());
    // The coefficient store: written by the entropy decode, read back by
    // the IDCTs — still warm, and never a stream packet.
    uint64_t cb = coeff_bytes(*img);
    ctx.touch_scratch(cb);
    ctx.touch_scratch_read(cb);
    ctx.charge_compute(cycles);
  }

 private:
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
      const hinch::Params& params) {
    auto comp = std::unique_ptr<DownscaleBlendComponent>(
        new DownscaleBlendComponent());
    comp->factor_ = static_cast<int>(params.get_int("factor"));
    comp->src_plane_ = static_cast<int>(params.get_int("src_plane"));
    comp->x_ = static_cast<int>(params.get_int("x"));
    comp->y_ = static_cast<int>(params.get_int("y"));
    comp->alpha_ = static_cast<int>(params.get_int("alpha"));
    comp->plane_ = static_cast<int>(params.get_int("plane"));
    return support::Result<std::unique_ptr<hinch::Component>>(
        std::move(comp));
  }

  // Same request the unfused blend honours, so reconfiguration keeps
  // working across the rewrite.
  void reconfigure(std::string_view request) override {
    parse_pos(request, &x_, &y_);
  }

  void run(ExecContext& ctx) override {
    FramePtr src = ctx.read(kIn).frame();
    Packet& slot = ctx.inout(kCanvas);
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
    charge_touch_rows(ctx, true, kIn, src, sp_idx, r0 * factor_,
                      r1 * factor_);
    int c0 = std::clamp(py + r0, 0, c.height);
    int c1 = std::clamp(py + r1, 0, c.height);
    charge_touch_rows(ctx, false, kCanvas, canvas, target, c0, c1);
  }

  static constexpr int kCanvas = 0;
  int factor_ = 1;
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

// The value the spec set for `name`, or nullptr.
const std::string* param_value(const sp::LeafSpec& leaf,
                               const std::string& name) {
  for (const sp::Param& p : leaf.params)
    if (p.name == name) return &p.value;
  return nullptr;
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
  // Only the params the spec set: downscale_blend's ClassInfo defaults
  // the rest as downscale's and blend's do.
  struct Copy {
    const sp::LeafSpec* leaf;
    const char* from;
    const char* to;
  };
  for (const Copy& c : {Copy{&ds, "factor", "factor"},
                        Copy{&ds, "plane", "src_plane"}, Copy{&bl, "x", "x"},
                        Copy{&bl, "y", "y"}, Copy{&bl, "alpha", "alpha"},
                        Copy{&bl, "plane", "plane"}}) {
    if (const std::string* v = param_value(*c.leaf, c.from))
      fused.params.push_back({c.to, *v});
  }
  // A param with no counterpart (a typo, a repeat) keeps the chain
  // unfused, where Program::build reports it.
  if (fused.params.size() != ds.params.size() + bl.params.size())
    return unsupported("downscale_blend fusion: a param has no counterpart");
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
  if (!dec.params.empty())
    return unsupported("jpeg_decode_planes fusion: decode has a param");
  // The fused decode emits y/u/v in plane order; any other plane
  // assignment has no fused kernel.
  const char* ports[3] = {"y", "u", "v"};
  std::vector<sp::PortBinding> outs;
  for (int p = 0; p < 3; ++p) {
    const sp::LeafSpec& idct = *specs[static_cast<size_t>(p) + 1];
    const std::string* plane = param_value(idct, "plane");
    if ((plane ? *plane : "0") != std::to_string(p))
      return unsupported("jpeg_decode_planes fusion: planes not 0,1,2");
    if (idct.params.size() != (plane ? 1u : 0u))
      return unsupported("jpeg_decode_planes fusion: decode has a param");
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
  registry.register_class({"jpeg_decode_planes",
                           &JpegDecodePlanesComponent::create,
                           {"jpeg"},
                           {"y", "u", "v"},
                           {}});
  // downscale's params, its plane renamed src_plane, then blend's.
  std::vector<hinch::ParamSpec> params = downscale_params();
  params[1].name = "src_plane";
  for (hinch::ParamSpec& p : blend_params()) params.push_back(std::move(p));
  registry.register_class({"downscale_blend", &DownscaleBlendComponent::create,
                           {"in"}, {"canvas"}, std::move(params)});
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
