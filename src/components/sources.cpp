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

namespace {

using hinch::ParamSpec;

// The synthetic clip a source's params name; quality and restart only
// for the encoded clip.
support::Result<ClipKey> clip_key(const hinch::Params& params, bool encoded) {
  ClipKey key;
  key.seed = static_cast<uint64_t>(params.get_int("seed"));
  key.width = static_cast<int>(params.get_int("width"));
  key.height = static_cast<int>(params.get_int("height"));
  key.frames = static_cast<int>(params.get_int("frames"));
  key.quality = encoded ? static_cast<int>(params.get_int("quality")) : 75;
  key.restart = encoded ? static_cast<int>(params.get_int("restart")) : 0;
  SUP_ASSIGN_OR_RETURN(key.format, parse_format(params.get_string("format")));
  return key;
}

// Params every source takes: `source=synth` synthesizes a seeded clip,
// `source=file` loads `path`.
std::vector<ParamSpec> source_params() {
  return {hinch::string_param("source", "synth"),
          hinch::string_param("path", ParamSpec::Presence::kOptional),
          hinch::int_param("seed", 0, INT64_MAX, 1),
          hinch::int_param("width", 8, kMaxSide, 320),
          hinch::int_param("height", 8, kMaxSide, 240),
          hinch::int_param("frames", 1, 4096, 32),
          hinch::string_param("format", "yuv420")};
}

// The file a `source=file` source loads, or "" for `source=synth`.
support::Result<std::string> source_path(const char* klass,
                                         const hinch::Params& params) {
  const std::string& source = params.get_string("source");
  if (source == "synth") return std::string();
  if (source != "file")
    return support::invalid_argument(std::string(klass) +
                                     ": source must be 'synth' or 'file'");
  if (!params.has("path"))
    return support::invalid_argument(std::string(klass) +
                                     ": source=file needs a path");
  return params.get_string("path");
}

// Emits one uncompressed frame per iteration (looping over the clip).
// The paper's PiP inputs: "reads multiple uncompressed video files".
class VideoSource : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::Params& params) {
    auto comp = std::make_unique<VideoSource>();
    SUP_ASSIGN_OR_RETURN(std::string path, source_path("video_source", params));
    if (path.empty()) {
      SUP_ASSIGN_OR_RETURN(ClipKey key, clip_key(params, /*encoded=*/false));
      comp->clip_ = cached_raw_clip(key);
    } else {
      SUP_ASSIGN_OR_RETURN(media::RawVideo video, media::RawVideo::load(path));
      comp->clip_ =
          std::make_shared<const media::RawVideo>(std::move(video));
    }
    return support::Result<std::unique_ptr<hinch::Component>>(std::move(comp));
  }

  void run(hinch::ExecContext& ctx) override {
    int t = static_cast<int>(ctx.iteration() %
                             static_cast<int64_t>(clip_->frame_count()));
    const media::FramePtr& frame = clip_->frame(t);
    ctx.write(kOut, hinch::Packet::of_frame(frame));
    // DMA the file data into the stream buffer.
    ctx.touch_write(kOut, 0, frame->bytes());
    ctx.charge_compute(media::io_cycles(frame->bytes()));
  }

 private:
  std::shared_ptr<const media::RawVideo> clip_;
};

// Emits one JPEG-compressed frame (byte packet) per iteration: the
// "MJPEG input" component of the paper's JPiP graph (Fig. 7).
class MjpegSource : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::Params& params) {
    auto comp = std::make_unique<MjpegSource>();
    SUP_ASSIGN_OR_RETURN(std::string path, source_path("mjpeg_source", params));
    if (path.empty()) {
      SUP_ASSIGN_OR_RETURN(ClipKey key, clip_key(params, /*encoded=*/true));
      if (key.format != media::PixelFormat::kYuv420 &&
          key.format != media::PixelFormat::kGray)
        return support::invalid_argument(
            "mjpeg_source: JPEG input must be yuv420 or gray");
      comp->clip_ = cached_mjpeg_clip(key);
    } else {
      SUP_ASSIGN_OR_RETURN(media::MjpegClip clip, media::MjpegClip::load(path));
      comp->clip_ =
          std::make_shared<const media::MjpegClip>(std::move(clip));
    }
    if (comp->clip_->frame_count() == 0)
      return support::invalid_argument("mjpeg_source: empty clip");
    return support::Result<std::unique_ptr<hinch::Component>>(std::move(comp));
  }

  void run(hinch::ExecContext& ctx) override {
    int t = static_cast<int>(ctx.iteration() %
                             static_cast<int64_t>(clip_->frame_count()));
    std::shared_ptr<const std::vector<uint8_t>> bytes(
        clip_, &clip_->frame(t));
    uint64_t size = bytes->size();
    ctx.write(kOut, hinch::Packet::of_const(std::move(bytes)));
    ctx.touch_write(kOut, 0, size);
    ctx.charge_compute(media::io_cycles(size));
  }

 private:
  std::shared_ptr<const media::MjpegClip> clip_;
};

}  // namespace

void register_sources(hinch::ComponentRegistry& registry) {
  registry.register_class({"video_source", &VideoSource::create, {}, {"out"},
                           source_params()});
  std::vector<ParamSpec> encoded = source_params();
  encoded.push_back(hinch::int_param("quality", 1, 100, 75));
  encoded.push_back(hinch::int_param("restart", 0, 65535, 0));
  registry.register_class(
      {"mjpeg_source", &MjpegSource::create, {}, {"out"}, std::move(encoded)});
}

}  // namespace components
