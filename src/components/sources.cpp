// Source components: uncompressed and MJPEG video inputs.
#include <string>

#include "components/clip_cache.hpp"
#include "components/detail.hpp"
#include "media/kernels.hpp"

namespace components {

support::Result<media::PixelFormat> parse_format(const std::string& s) {
  if (s == "yuv420") return media::PixelFormat::kYuv420;
  if (s == "yuv444") return media::PixelFormat::kYuv444;
  if (s == "gray") return media::PixelFormat::kGray;
  return support::invalid_argument("unknown pixel format '" + s + "'");
}

support::Result<ClipKey> clip_key_from_params(const hinch::ParamMap& params) {
  ClipKey key;
  key.seed = static_cast<uint64_t>(hinch::param_int_or(params, "seed", 1));
  key.width = static_cast<int>(hinch::param_int_or(params, "width", 320));
  key.height = static_cast<int>(hinch::param_int_or(params, "height", 240));
  key.frames = static_cast<int>(hinch::param_int_or(params, "frames", 32));
  key.quality = static_cast<int>(hinch::param_int_or(params, "quality", 75));
  key.restart = static_cast<int>(hinch::param_int_or(params, "restart", 0));
  SUP_ASSIGN_OR_RETURN(
      key.format,
      parse_format(hinch::param_string_or(params, "format", "yuv420")));
  if (key.width < 8 || key.height < 8)
    return support::invalid_argument("source frames must be at least 8x8");
  if (key.frames < 1)
    return support::invalid_argument("source needs at least one frame");
  if (key.restart < 0 || key.restart > 65535)
    return support::invalid_argument("restart interval must be in [0, 65535]");
  return key;
}

namespace {

// Emits one uncompressed frame per iteration (looping over the clip).
// The paper's PiP inputs: "reads multiple uncompressed video files".
class VideoSource : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::ComponentConfig& config) {
    auto comp = std::make_unique<VideoSource>();
    std::string source =
        hinch::param_string_or(config.params, "source", "synth");
    if (source == "synth") {
      SUP_ASSIGN_OR_RETURN(ClipKey key, clip_key_from_params(config.params));
      comp->clip_ = cached_raw_clip(key);
    } else if (source == "file") {
      SUP_ASSIGN_OR_RETURN(std::string path,
                           hinch::param_string(config.params, "path"));
      SUP_ASSIGN_OR_RETURN(media::RawVideo video,
                           media::RawVideo::load(path));
      comp->clip_ =
          std::make_shared<const media::RawVideo>(std::move(video));
    } else {
      return support::invalid_argument("video_source: source must be "
                                       "'synth' or 'file'");
    }
    return support::Result<std::unique_ptr<hinch::Component>>(std::move(comp));
  }

  VideoSource() : out_(declare_output("out")) {}

  void run(hinch::ExecContext& ctx) override {
    int t = static_cast<int>(ctx.iteration() %
                             static_cast<int64_t>(clip_->frame_count()));
    const media::FramePtr& frame = clip_->frame(t);
    ctx.write(out_, hinch::Packet::of_frame(frame));
    // DMA the file data into the stream buffer.
    ctx.touch_write(out_, 0, frame->bytes());
    ctx.charge_compute(media::io_cycles(frame->bytes()));
  }

 private:
  std::shared_ptr<const media::RawVideo> clip_;
  int out_;
};

// Emits one JPEG-compressed frame (byte packet) per iteration: the
// "MJPEG input" component of the paper's JPiP graph (Fig. 7).
class MjpegSource : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::ComponentConfig& config) {
    auto comp = std::make_unique<MjpegSource>();
    std::string source =
        hinch::param_string_or(config.params, "source", "synth");
    if (source == "synth") {
      SUP_ASSIGN_OR_RETURN(ClipKey key, clip_key_from_params(config.params));
      if (key.format != media::PixelFormat::kYuv420 &&
          key.format != media::PixelFormat::kGray)
        return support::invalid_argument(
            "mjpeg_source: JPEG input must be yuv420 or gray");
      comp->clip_ = cached_mjpeg_clip(key);
    } else if (source == "file") {
      SUP_ASSIGN_OR_RETURN(std::string path,
                           hinch::param_string(config.params, "path"));
      SUP_ASSIGN_OR_RETURN(media::MjpegClip clip,
                           media::MjpegClip::load(path));
      comp->clip_ =
          std::make_shared<const media::MjpegClip>(std::move(clip));
    } else {
      return support::invalid_argument("mjpeg_source: source must be "
                                       "'synth' or 'file'");
    }
    if (comp->clip_->frame_count() == 0)
      return support::invalid_argument("mjpeg_source: empty clip");
    return support::Result<std::unique_ptr<hinch::Component>>(std::move(comp));
  }

  MjpegSource() : out_(declare_output("out")) {}

  void run(hinch::ExecContext& ctx) override {
    int t = static_cast<int>(ctx.iteration() %
                             static_cast<int64_t>(clip_->frame_count()));
    std::shared_ptr<const std::vector<uint8_t>> bytes(
        clip_, &clip_->frame(t));
    uint64_t size = bytes->size();
    ctx.write(out_, hinch::Packet::of_const(std::move(bytes)));
    ctx.touch_write(out_, 0, size);
    ctx.charge_compute(media::io_cycles(size));
  }

 private:
  std::shared_ptr<const media::MjpegClip> clip_;
  int out_;
};

}  // namespace

void register_sources(hinch::ComponentRegistry& registry) {
  registry.register_class("video_source", &VideoSource::create);
  registry.register_class("mjpeg_source", &MjpegSource::create);
}

}  // namespace components
