// The two-stage JPEG decode of the JPiP graph (Fig. 7): "JPEG decode"
// (entropy decode + dequantize) followed by per-plane "IDCT" components.
#include "components/detail.hpp"
#include "hinch/component.hpp"
#include "media/jpeg.hpp"
#include "media/kernels.hpp"

namespace components {
namespace {

using media::jpeg::CoeffImage;

uint64_t total_blocks(const CoeffImage& img) {
  uint64_t total = 0;
  for (const auto& c : img.comps) total += c.blocks.size();
  return total;
}

// Byte offset of component `plane`'s blocks inside the coefficient
// payload (for memory-traffic accounting).
uint64_t coeff_plane_offset(const CoeffImage& img, int plane) {
  uint64_t off = 0;
  for (int i = 0; i < plane; ++i)
    off += img.comps[static_cast<size_t>(i)].blocks.size() *
           sizeof(std::array<int16_t, 64>);
  return off;
}

// Entropy decode + dequantization: sequential over the whole scan
// (restart-coded streams included). The component keeps no state
// between runs, so it registers reentrant: a spec may let frames of an
// MJPEG stream decode concurrently through the iteration window.
class JpegDecodeComponent : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::Params&) {
    return std::unique_ptr<hinch::Component>(new JpegDecodeComponent());
  }

  void run(hinch::ExecContext& ctx) override {
    auto bytes = ctx.read(kIn).get<std::vector<uint8_t>>();
    // Decode in place into this iteration's slot. It holds the image of
    // iteration iter - depth, which has retired (window <= depth), so a
    // 1080p stream reuses its several-MB coefficient buffers instead of
    // allocating and zero-filling one per frame.
    hinch::Packet& slot = ctx.acquire(kOut);
    std::shared_ptr<CoeffImage> img =
        slot.empty() ? std::make_shared<CoeffImage>() : slot.get<CoeffImage>();
    support::Status st = media::jpeg::decode_to_coefficients_into(
        bytes->data(), bytes->size(), img.get());
    SUP_CHECK_MSG(st.is_ok(), st.to_string().c_str());
    uint64_t out_bytes = coeff_bytes(*img);
    uint64_t blocks = total_blocks(*img);
    ctx.touch_read(kIn, 0, bytes->size());
    ctx.touch_write(kOut, 0, out_bytes);
    ctx.charge_compute(
        media::jpeg::entropy_decode_cycles(bytes->size(), blocks));
    slot = hinch::Packet::of(std::move(img));
    ctx.commit(kOut);
  }
};

// IDCT of one colour component into a gray frame; data-parallel over
// block rows (the paper runs it with 45 slices on 1280x720).
class IdctComponent : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::Params& params) {
    return std::unique_ptr<hinch::Component>(
        new IdctComponent(static_cast<int>(params.get_int("plane"))));
  }

  explicit IdctComponent(int plane) : plane_(plane) {}

  void run(hinch::ExecContext& ctx) override {
    auto img = ctx.read(kIn).get<CoeffImage>();
    SUP_CHECK_MSG(plane_ < static_cast<int>(img->comps.size()),
                  "idct: no such component in the JPEG stream");
    const media::jpeg::CoeffPlane& comp =
        img->comps[static_cast<size_t>(plane_)];
    media::FramePtr dst = output_stream(kOut)->get_or_alloc_frame(
        ctx.iteration(), media::PixelFormat::kGray, comp.width, comp.height);
    int b0 = 0, b1 = 0;
    hinch::slice_rows(comp.blocks_h, slice_index(), slice_count(), &b0, &b1);
    media::jpeg::idct_component(comp, dst->plane(0), b0, b1);

    uint64_t blocks =
        static_cast<uint64_t>(b1 - b0) * static_cast<uint64_t>(comp.blocks_w);
    uint64_t row_bytes = static_cast<uint64_t>(comp.blocks_w) * 128;
    ctx.touch_read(kIn, coeff_plane_offset(*img, plane_) +
                            static_cast<uint64_t>(b0) * row_bytes,
                   static_cast<uint64_t>(b1 - b0) * row_bytes);
    int r0 = std::min(b0 * 8, comp.height);
    int r1 = std::min(b1 * 8, comp.height);
    ctx.touch_write(kOut, static_cast<uint64_t>(r0) * comp.width,
                    static_cast<uint64_t>(r1 - r0) * comp.width);
    ctx.charge_compute(media::jpeg::idct_cycles(blocks));
  }

 private:
  int plane_;
};

}  // namespace

void register_jpeg_stages(hinch::ComponentRegistry& registry) {
  registry.register_class({"jpeg_decode",
                           &JpegDecodeComponent::create,
                           {"jpeg"},
                           {"coeffs"},
                           {},
                           /*reentrant=*/true});
  registry.register_class({"idct",
                           &IdctComponent::create,
                           {"coeffs"},
                           {"out"},
                           {hinch::int_param("plane", 0, 2, 0)}});
}

}  // namespace components
