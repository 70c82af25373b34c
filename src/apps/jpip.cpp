#include "apps/jpip.hpp"

#include "apps/seq_machine.hpp"
#include "components/clip_cache.hpp"
#include "media/jpeg.hpp"
#include "media/kernels.hpp"
#include "support/strings.hpp"

namespace apps {
namespace {

using support::format;

std::string source_xml(const std::string& name, uint64_t seed,
                       const JpipConfig& c, const std::string& stream) {
  return format(
      "      <component name=\"%s\" class=\"mjpeg_source\">\n"
      "        <param name=\"seed\" value=\"%llu\"/>\n"
      "        <param name=\"width\" value=\"%d\"/>\n"
      "        <param name=\"height\" value=\"%d\"/>\n"
      "        <param name=\"frames\" value=\"%d\"/>\n"
      "        <param name=\"quality\" value=\"%d\"/>\n"
      "        <outport name=\"out\" stream=\"%s\"/>\n"
      "      </component>\n",
      name.c_str(), static_cast<unsigned long long>(seed), c.width, c.height,
      c.clip_frames, c.quality, stream.c_str());
}

// Decode procedure: JPEG decode followed by three concurrent sliced
// IDCTs (Fig. 7's left column), writing into the given plane streams.
// `reentrant` lets frames decode concurrently; JPiP keeps the default.
const char* kDecodeProcedure = R"(
  <procedure name="jpeg_chain">
    <formal name="jpeg" kind="stream"/>
    <formal name="py" kind="stream"/>
    <formal name="pu" kind="stream"/>
    <formal name="pv" kind="stream"/>
    <formal name="slices" kind="value"/>
    <formal name="reentrant" kind="value" default="false"/>
    <body>
      <component name="dec" class="jpeg_decode" reentrant="$reentrant">
        <inport name="jpeg" stream="jpeg"/>
        <outport name="coeffs" stream="coeffs"/>
      </component>
      <parallel shape="task">
        <parblock>
          <parallel shape="slice" n="$slices"><parblock>
            <component name="idct_y" class="idct">
              <param name="plane" value="0"/>
              <inport name="coeffs" stream="coeffs"/>
              <outport name="out" stream="py"/>
            </component>
          </parblock></parallel>
        </parblock>
        <parblock>
          <parallel shape="slice" n="$slices"><parblock>
            <component name="idct_u" class="idct">
              <param name="plane" value="1"/>
              <inport name="coeffs" stream="coeffs"/>
              <outport name="out" stream="pu"/>
            </component>
          </parblock></parallel>
        </parblock>
        <parblock>
          <parallel shape="slice" n="$slices"><parblock>
            <component name="idct_v" class="idct">
              <param name="plane" value="2"/>
              <inport name="coeffs" stream="coeffs"/>
              <outport name="out" stream="pv"/>
            </component>
          </parblock></parallel>
        </parblock>
      </parallel>
    </body>
  </procedure>
)";

// The §4.1 fusion experiment: the whole decode chain (entropy decode +
// the three IDCTs) fused into ONE group, so the coefficient image is
// consumed immediately after it is produced instead of parking in a
// 5-slot stream. This is exactly the paper's proposal — and also its
// caveat: the fused task is unsliced, so "this approach reduces the
// amount of parallelism in the application".
const char* kDecodeGroupedProcedure = R"(
  <procedure name="jpeg_chain_grouped">
    <formal name="jpeg" kind="stream"/>
    <formal name="py" kind="stream"/>
    <formal name="pu" kind="stream"/>
    <formal name="pv" kind="stream"/>
    <formal name="slices" kind="value"/>
    <body>
      <group>
        <component name="dec" class="jpeg_decode">
          <inport name="jpeg" stream="jpeg"/>
          <outport name="coeffs" stream="coeffs"/>
        </component>
        <component name="idct_y" class="idct">
          <param name="plane" value="0"/>
          <inport name="coeffs" stream="coeffs"/>
          <outport name="out" stream="py"/>
        </component>
        <component name="idct_u" class="idct">
          <param name="plane" value="1"/>
          <inport name="coeffs" stream="coeffs"/>
          <outport name="out" stream="pu"/>
        </component>
        <component name="idct_v" class="idct">
          <param name="plane" value="2"/>
          <inport name="coeffs" stream="coeffs"/>
          <outport name="out" stream="pv"/>
        </component>
      </group>
    </body>
  </procedure>
)";

// Downscale+blend for one already-decoded plane (gray streams). The
// blend coordinates are in this plane's coordinate space.
const char* kPlaneScaleBlendProcedure = R"(
  <procedure name="scale_blend_plane">
    <formal name="src" kind="stream"/>
    <formal name="canvas" kind="stream"/>
    <formal name="factor" kind="value"/>
    <formal name="x" kind="value"/>
    <formal name="y" kind="value"/>
    <formal name="alpha" kind="value" default="256"/>
    <formal name="slices" kind="value"/>
    <body>
      <parallel shape="slice" n="$slices"><parblock>
        <component name="ds" class="downscale">
          <param name="factor" value="$factor"/>
          <inport name="in" stream="src"/>
          <outport name="out" stream="small"/>
        </component>
      </parblock></parallel>
      <parallel shape="slice" n="$slices"><parblock>
        <component name="bl" class="blend">
          <param name="x" value="$x"/>
          <param name="y" value="$y"/>
          <param name="alpha" value="$alpha"/>
          <inport name="fg" stream="small"/>
          <outport name="canvas" stream="canvas"/>
        </component>
      </parblock></parallel>
    </body>
  </procedure>
)";

std::string decode_call_xml(const std::string& name, const std::string& src,
                            const std::string& plane_prefix,
                            const JpipConfig& c) {
  return format(
      "      <call procedure=\"%s\" name=\"%s\">\n"
      "        <arg name=\"jpeg\" stream=\"%s\"/>\n"
      "        <arg name=\"py\" stream=\"%sy\"/>\n"
      "        <arg name=\"pu\" stream=\"%su\"/>\n"
      "        <arg name=\"pv\" stream=\"%sv\"/>\n"
      "        <arg name=\"slices\" value=\"%d\"/>\n"
      "      </call>\n",
      c.grouped ? "jpeg_chain_grouped" : "jpeg_chain", name.c_str(),
      src.c_str(), plane_prefix.c_str(), plane_prefix.c_str(),
      plane_prefix.c_str(), c.slices);
}

// Per-plane dimensions of a yuv420 frame.
void plane_size(const JpipConfig& c, int plane, int* w, int* h) {
  media::plane_dims(media::PixelFormat::kYuv420, c.width, c.height, plane, w,
                    h);
}

// The three per-plane scale+blend calls of one picture-in-picture chain,
// processed concurrently (task shape over colour fields).
std::string scale_blend_calls_xml(const std::string& name,
                                  const std::string& plane_prefix,
                                  const JpipConfig& c, int index) {
  int x = 0, y = 0;
  jpip_position(c, index, &x, &y);
  std::string out = "      <parallel shape=\"task\">\n";
  const char* planes = "yuv";
  for (int p = 0; p < 3; ++p) {
    int pw = 0, ph = 0;
    plane_size(c, p, &pw, &ph);
    int px = x * pw / c.width;
    int py = y * ph / c.height;
    out += format(
        "        <parblock>\n"
        "          <call procedure=\"%s\" name=\"%s_%c\">\n"
        "            <arg name=\"src\" stream=\"%s%c\"/>\n"
        "            <arg name=\"canvas\" stream=\"canvas%c\"/>\n"
        "            <arg name=\"factor\" value=\"%d\"/>\n"
        "            <arg name=\"x\" value=\"%d\"/>\n"
        "            <arg name=\"y\" value=\"%d\"/>\n"
        "            <arg name=\"alpha\" value=\"%d\"/>\n"
        "            <arg name=\"slices\" value=\"%d\"/>\n"
        "          </call>\n"
        "        </parblock>\n",
        "scale_blend_plane", name.c_str(), planes[p], plane_prefix.c_str(),
        planes[p], planes[p], c.factor, px, py, c.alpha, c.slices);
  }
  out += "      </parallel>\n";
  return out;
}

}  // namespace

const char* jpeg_chain_procedure() { return kDecodeProcedure; }

void jpip_position(const JpipConfig& config, int index, int* x, int* y) {
  int sw = config.width / config.factor;
  int sh = config.height / config.factor;
  int col = index % 2;
  int row = index / 2;
  *x = col == 0 ? 32 : config.width - sw - 32;
  *y = 32 + row * (sh + 32);
  *x &= ~1;
  *y &= ~1;
}

std::string jpip_xspcl(const JpipConfig& config) {
  SUP_CHECK(config.pips >= 1);
  SUP_CHECK(!config.reconfigurable || config.pips >= 2);
  int static_pips = config.reconfigurable ? 1 : config.pips;

  std::string body;
  body += "      <parallel shape=\"task\">\n";
  body += "        <parblock>\n" +
          source_xml("bg_src", config.bg_seed, config, "bg_jpeg") +
          "        </parblock>\n";
  for (int i = 0; i < static_pips; ++i) {
    body += "        <parblock>\n" +
            source_xml(format("pip%d_src", i + 1),
                       config.pip_seed + static_cast<uint64_t>(i), config,
                       format("pip%d_jpeg", i + 1)) +
            "        </parblock>\n";
  }
  body += "      </parallel>\n";

  if (config.reconfigurable) {
    body += format(
        "      <component name=\"ticker\" class=\"event_ticker\">\n"
        "        <param name=\"event\" value=\"toggle2\"/>\n"
        "        <param name=\"queue\" value=\"ui\"/>\n"
        "        <param name=\"period\" value=\"%d\"/>\n"
        "      </component>\n",
        config.toggle_period);
  }

  // Background: decode straight into the canvas planes (blends write
  // over them in place, Fig. 7).
  body += decode_call_xml("bg", "bg_jpeg", "canvas", config);

  // Picture-in-picture chains.
  auto pip_chain = [&](int i) {
    std::string prefix = format("pip%d_", i + 1);
    return decode_call_xml(format("pip%ddec", i + 1),
                           format("pip%d_jpeg", i + 1), prefix, config) +
           scale_blend_calls_xml(format("pip%d", i + 1), prefix, config, i);
  };
  body += pip_chain(0);
  if (config.reconfigurable) {
    body +=
        "      <manager name=\"mgr\" queue=\"ui\">\n"
        "        <on event=\"toggle2\" action=\"toggle\" option=\"pip2\"/>\n"
        "        <body>\n"
        "          <option name=\"pip2\" enabled=\"false\">\n" +
        source_xml("pip2_src", config.pip_seed + 1, config, "pip2_jpeg") +
        pip_chain(1) +
        "          </option>\n"
        "        </body>\n"
        "      </manager>\n";
  } else {
    for (int i = 1; i < config.pips; ++i) body += pip_chain(i);
  }

  body += format(
      "      <component name=\"sink\" class=\"yuv_sink\">\n"
      "        <param name=\"store\" value=\"%d\"/>\n"
      "        <inport name=\"y\" stream=\"canvasy\"/>\n"
      "        <inport name=\"u\" stream=\"canvasu\"/>\n"
      "        <inport name=\"v\" stream=\"canvasv\"/>\n"
      "      </component>\n",
      config.store_output ? 1 : 0);

  std::string out = "<xspcl>\n  <procedure name=\"main\">\n    <body>\n";
  out += body;
  out += "    </body>\n  </procedure>\n";
  out += config.grouped ? kDecodeGroupedProcedure : kDecodeProcedure;
  out += kPlaneScaleBlendProcedure;
  out += "</xspcl>\n";
  return out;
}

SeqResult run_jpip_sequential(const JpipConfig& config,
                              const sim::CacheConfig& cache,
                              SeqTrace* trace) {
  SUP_CHECK(!config.reconfigurable);
  SeqMachine m(cache, trace);

  components::ClipKey bg_key{config.bg_seed, config.width, config.height,
                             media::PixelFormat::kYuv420, config.clip_frames,
                             config.quality};
  auto bg_clip = components::cached_mjpeg_clip(bg_key);
  std::vector<std::shared_ptr<const media::MjpegClip>> pip_clips;
  for (int i = 0; i < config.pips; ++i) {
    components::ClipKey key = bg_key;
    key.seed = config.pip_seed + static_cast<uint64_t>(i);
    pip_clips.push_back(components::cached_mjpeg_clip(key));
  }

  media::FramePtr canvas = media::make_frame(media::PixelFormat::kYuv420,
                                             config.width, config.height);
  media::FramePtr pip_frame = media::make_frame(media::PixelFormat::kYuv420,
                                                config.width, config.height);

  // Regions: bitstreams, one coefficient store (reused), decoded planes.
  sim::RegionId bits_r = m.region(1u << 22, "bitstream");
  // Coefficient store: yuv420 coefficients are 1.5x pixels, 2 B each.
  uint64_t coeff_bytes = canvas->bytes() * 2;
  sim::RegionId coeff_r = m.region(coeff_bytes, "coeffs");
  sim::RegionId canvas_r = m.region(canvas->bytes(), "canvas");
  sim::RegionId pip_r = m.region(pip_frame->bytes(), "pip_planes");

  auto decode_into = [&](const std::vector<uint8_t>& bytes,
                         media::Frame& target, sim::RegionId target_r) {
    // Input: DMA the compressed frame into memory.
    m.charge(media::io_cycles(bytes.size()));
    m.write(bits_r, 0, bytes.size());
    auto coeffs = media::jpeg::decode_to_coefficients(bytes.data(),
                                                      bytes.size());
    SUP_CHECK_MSG(coeffs.is_ok(), coeffs.status().to_string().c_str());
    const media::jpeg::CoeffImage& img = coeffs.value();
    uint64_t blocks = 0;
    uint64_t actual_coeff_bytes = 0;
    for (const auto& c : img.comps) {
      blocks += c.blocks.size();
      actual_coeff_bytes += c.blocks.size() * 128;
    }
    m.charge(media::jpeg::entropy_decode_cycles(bytes.size(), blocks));
    m.read(bits_r, 0, bytes.size());
    m.write(coeff_r, 0, actual_coeff_bytes);

    // IDCT each plane, immediately after the decode (good locality — the
    // coefficients are still warm; the componentized version interleaves
    // other work here).
    uint64_t coeff_off = 0;
    for (int p = 0; p < 3; ++p) {
      const media::jpeg::CoeffPlane& cp = img.comps[static_cast<size_t>(p)];
      media::jpeg::idct_component(cp, target.plane(p), 0, cp.blocks_h);
      m.charge(media::jpeg::idct_cycles(cp.blocks.size()));
      m.read(coeff_r, coeff_off, cp.blocks.size() * 128);
      coeff_off += cp.blocks.size() * 128;
      m.write(target_r, target.plane_offset(p), target.plane(p).bytes());
    }
  };

  SeqResult result;
  for (int t = 0; t < config.frames; ++t) {
    int ct = t % config.clip_frames;
    decode_into(bg_clip->frame(ct), *canvas, canvas_r);

    for (int i = 0; i < config.pips; ++i) {
      decode_into(pip_clips[static_cast<size_t>(i)]->frame(ct), *pip_frame,
                  pip_r);
      int x = 0, y = 0;
      jpip_position(config, i, &x, &y);
      for (int p = 0; p < 3; ++p) {
        media::ConstPlaneView src = pip_frame->plane(p);
        media::PlaneView dst = canvas->plane(p);
        int px = x * dst.width / canvas->width();
        int py = y * dst.height / canvas->height();
        media::downscale_blend(src, dst, config.factor, px, py, config.alpha,
                               0, dst.height);
        int sw = src.width / config.factor;
        int sh = src.height / config.factor;
        m.charge(media::downscale_blend_cycles(sw, sh, config.factor));
        m.read(pip_r, pip_frame->plane_offset(p), src.bytes());
        m.write(canvas_r,
                canvas->plane_offset(p) +
                    static_cast<uint64_t>(py) * static_cast<uint64_t>(dst.width),
                static_cast<uint64_t>(sh) * static_cast<uint64_t>(dst.width));
      }
    }

    // Output: DMA the composed frame out.
    m.charge(media::io_cycles(canvas->bytes()));
    m.read(canvas_r, 0, canvas->bytes());
    result.checksum = media::frame_hash(*canvas, result.checksum);
    ++result.frames;
  }
  result.cycles = m.cycles();
  result.mem = m.mem_stats();
  return result;
}

}  // namespace apps
