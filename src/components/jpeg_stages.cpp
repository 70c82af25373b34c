// The two-stage JPEG decode of the JPiP graph (Fig. 7): "JPEG decode"
// (entropy decode + dequantize) followed by per-plane "IDCT" components.
#include <mutex>

#include "components/detail.hpp"
#include "components/sinks.hpp"
#include "hinch/component.hpp"
#include "media/jpeg.hpp"
#include "media/kernels.hpp"
#include "media/mjpeg.hpp"

namespace components {
namespace {

using media::jpeg::CoeffImage;

uint64_t coeff_bytes(const CoeffImage& img) {
  uint64_t total = 0;
  for (const auto& c : img.comps)
    total += c.blocks.size() * sizeof(std::array<int16_t, 64>);
  return total;
}

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
      const hinch::ComponentConfig&) {
    return std::unique_ptr<hinch::Component>(new JpegDecodeComponent());
  }

  JpegDecodeComponent()
      : in_(declare_input("jpeg")), out_(declare_output("coeffs")) {}

  void run(hinch::ExecContext& ctx) override {
    auto bytes = ctx.read(in_).get<std::vector<uint8_t>>();
    // Decode in place into this iteration's slot. It holds the image of
    // iteration iter - depth, which has retired (window <= depth), so a
    // 1080p stream reuses its several-MB coefficient buffers instead of
    // allocating and zero-filling one per frame.
    hinch::Packet& slot = ctx.acquire(out_);
    std::shared_ptr<CoeffImage> img =
        slot.empty() ? std::make_shared<CoeffImage>() : slot.get<CoeffImage>();
    support::Status st = media::jpeg::decode_to_coefficients_into(
        bytes->data(), bytes->size(), img.get());
    SUP_CHECK_MSG(st.is_ok(), st.to_string().c_str());
    uint64_t out_bytes = coeff_bytes(*img);
    uint64_t blocks = total_blocks(*img);
    ctx.touch_read(in_, 0, bytes->size());
    ctx.touch_write(out_, 0, out_bytes);
    ctx.charge_compute(
        media::jpeg::entropy_decode_cycles(bytes->size(), blocks));
    slot = hinch::Packet::of(std::move(img), out_bytes);
    ctx.commit(out_);
  }

 private:
  const int in_;
  const int out_;
};

// IDCT of one colour component into a gray frame; data-parallel over
// block rows (the paper runs it with 45 slices on 1280x720).
class IdctComponent : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::ComponentConfig& config) {
    int plane =
        static_cast<int>(hinch::param_int_or(config.params, "plane", 0));
    if (plane < 0 || plane > 2)
      return support::invalid_argument("idct: plane must be 0, 1 or 2");
    return std::unique_ptr<hinch::Component>(new IdctComponent(plane));
  }

  explicit IdctComponent(int plane)
      : in_(declare_input("coeffs")), out_(declare_output("out")),
        plane_(plane) {}

  void run(hinch::ExecContext& ctx) override {
    auto img = ctx.read(in_).get<CoeffImage>();
    SUP_CHECK_MSG(plane_ < static_cast<int>(img->comps.size()),
                  "idct: no such component in the JPEG stream");
    const media::jpeg::CoeffPlane& comp =
        img->comps[static_cast<size_t>(plane_)];
    media::FramePtr dst = output_stream(out_)->get_or_alloc_frame(
        ctx.iteration(), media::PixelFormat::kGray, comp.width, comp.height);
    int b0 = 0, b1 = 0;
    hinch::slice_rows(comp.blocks_h, slice_index(), slice_count(), &b0, &b1);
    media::jpeg::idct_component(comp, dst->plane(0), b0, b1);

    uint64_t blocks =
        static_cast<uint64_t>(b1 - b0) * static_cast<uint64_t>(comp.blocks_w);
    uint64_t row_bytes = static_cast<uint64_t>(comp.blocks_w) * 128;
    ctx.touch_read(in_, coeff_plane_offset(*img, plane_) +
                            static_cast<uint64_t>(b0) * row_bytes,
                   static_cast<uint64_t>(b1 - b0) * row_bytes);
    int r0 = std::min(b0 * 8, comp.height);
    int r1 = std::min(b1 * 8, comp.height);
    ctx.touch_write(out_, static_cast<uint64_t>(r0) * comp.width,
                    static_cast<uint64_t>(r1 - r0) * comp.width);
    ctx.charge_compute(media::jpeg::idct_cycles(blocks));
  }

 private:
  int in_;
  int out_;
  int plane_;
};

// Compresses frames back to baseline JPEG: the producer half of a
// transcoding pipeline. params: quality (default 75), restart (MCUs per
// restart marker, default 0).
class JpegEncodeComponent : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::ComponentConfig& config) {
    int quality =
        static_cast<int>(hinch::param_int_or(config.params, "quality", 75));
    int restart =
        static_cast<int>(hinch::param_int_or(config.params, "restart", 0));
    if (quality < 1 || quality > 100)
      return support::invalid_argument(
          "jpeg_encode: quality must be in [1, 100]");
    if (restart < 0 || restart > 65535)
      return support::invalid_argument(
          "jpeg_encode: restart must be in [0, 65535]");
    return std::unique_ptr<hinch::Component>(
        new JpegEncodeComponent(quality, restart));
  }

  JpegEncodeComponent(int quality, int restart)
      : in_(declare_input("in")),
        out_(declare_output("jpeg")),
        quality_(quality),
        restart_(restart) {}

  void run(hinch::ExecContext& ctx) override {
    media::FramePtr frame = ctx.read(in_).frame();
    auto encoded = media::jpeg::encode(*frame, quality_, restart_);
    SUP_CHECK_MSG(encoded.is_ok(), encoded.status().to_string().c_str());
    auto bytes = std::make_shared<std::vector<uint8_t>>(
        std::move(encoded).take());
    uint64_t size = bytes->size();
    uint64_t blocks = frame->bytes() / 64 + 1;
    ctx.touch_read(in_, 0, frame->bytes());
    ctx.touch_write(out_, 0, size);
    ctx.charge_compute(media::jpeg::encode_cycles(blocks, size));
    ctx.write(out_, hinch::Packet::of(std::move(bytes), size));
  }

 private:
  int in_;
  int out_;
  int quality_;
  int restart_;
};

// Collects compressed frames into an MjpegClip (retrieve through
// MjpegSinkAccess, or set the `path` param to save the clip after every
// appended frame — handy for tools, O(total bytes) per frame).
class MjpegSink : public hinch::Component, public MjpegSinkAccess {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::ComponentConfig& config) {
    auto comp = std::unique_ptr<MjpegSink>(new MjpegSink());
    comp->path_ = hinch::param_string_or(config.params, "path", "");
    return support::Result<std::unique_ptr<hinch::Component>>(
        std::move(comp));
  }

  MjpegSink() : in_(declare_input("in")) {}

  void reset() override {
    std::lock_guard<std::mutex> lock(mutex_);
    clip_ = media::MjpegClip();
  }

  void run(hinch::ExecContext& ctx) override {
    auto bytes = ctx.read(in_).get<std::vector<uint8_t>>();
    ctx.touch_read(in_, 0, bytes->size());
    ctx.charge_compute(media::io_cycles(bytes->size()));
    std::lock_guard<std::mutex> lock(mutex_);
    clip_.append(*bytes);
    if (!path_.empty()) {
      support::Status st = clip_.save(path_);
      SUP_CHECK_MSG(st.is_ok(), st.to_string().c_str());
    }
  }

  media::MjpegClip clip() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return clip_;
  }

 private:
  int in_;
  std::string path_;
  mutable std::mutex mutex_;
  media::MjpegClip clip_;
};

}  // namespace

void register_jpeg_stages(hinch::ComponentRegistry& registry) {
  registry.register_class("jpeg_decode", &JpegDecodeComponent::create,
                          /*reentrant=*/true);
  registry.register_class("idct", &IdctComponent::create);
  registry.register_class("jpeg_encode", &JpegEncodeComponent::create);
  registry.register_class("mjpeg_sink", &MjpegSink::create);
}

}  // namespace components
