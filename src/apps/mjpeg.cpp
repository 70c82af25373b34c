#include "apps/mjpeg.hpp"

#include "components/components.hpp"
#include "components/sinks.hpp"
#include "hinch/runtime.hpp"
#include "obs/metrics.hpp"
#include "support/strings.hpp"
#include "xspcl/loader.hpp"

namespace apps {
namespace {

using support::format;

// Decode chain: entropy decode followed by three concurrent sliced
// IDCTs, reassembled by the sink.
const char* kDecodeProcedure = R"(
  <procedure name="mjpeg_chain">
    <formal name="jpeg" kind="stream"/>
    <formal name="py" kind="stream"/>
    <formal name="pu" kind="stream"/>
    <formal name="pv" kind="stream"/>
    <formal name="slices" kind="value"/>
    <body>
      <component name="dec" class="jpeg_decode">
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

}  // namespace

std::string mjpeg_xspcl(const MjpegDecodeConfig& c) {
  std::string body = format(
      "      <component name=\"src\" class=\"mjpeg_source\">\n"
      "        <param name=\"seed\" value=\"%llu\"/>\n"
      "        <param name=\"width\" value=\"%d\"/>\n"
      "        <param name=\"height\" value=\"%d\"/>\n"
      "        <param name=\"frames\" value=\"%d\"/>\n"
      "        <param name=\"quality\" value=\"%d\"/>\n"
      "        <param name=\"restart\" value=\"%d\"/>\n"
      "        <outport name=\"out\" stream=\"jpeg\"/>\n"
      "      </component>\n",
      static_cast<unsigned long long>(c.seed), c.width, c.height,
      c.clip_frames, c.quality, c.restart);
  body += format(
      "      <call procedure=\"mjpeg_chain\" name=\"dec\">\n"
      "        <arg name=\"jpeg\" stream=\"jpeg\"/>\n"
      "        <arg name=\"py\" stream=\"py\"/>\n"
      "        <arg name=\"pu\" stream=\"pu\"/>\n"
      "        <arg name=\"pv\" stream=\"pv\"/>\n"
      "        <arg name=\"slices\" value=\"%d\"/>\n"
      "      </call>\n",
      c.slices);
  body += format(
      "      <component name=\"sink\" class=\"yuv_sink\">\n"
      "        <param name=\"store\" value=\"%d\"/>\n"
      "        <inport name=\"y\" stream=\"py\"/>\n"
      "        <inport name=\"u\" stream=\"pu\"/>\n"
      "        <inport name=\"v\" stream=\"pv\"/>\n"
      "      </component>\n",
      c.store_output ? 1 : 0);

  std::string out = "<xspcl>\n  <procedure name=\"main\">\n    <body>\n";
  out += body;
  out += "    </body>\n  </procedure>\n";
  out += kDecodeProcedure;
  out += "</xspcl>\n";
  return out;
}

MjpegDecodeResult run_mjpeg_decode(const MjpegDecodeConfig& config) {
  components::register_standard_globally();
  auto prog = xspcl::build_program(mjpeg_xspcl(config),
                                   hinch::ComponentRegistry::global());
  SUP_CHECK_MSG(prog.is_ok(), prog.status().to_string().c_str());

  obs::MetricsRegistry metrics;
  hinch::RunConfig run;
  run.iterations = config.frames;
  run.window = config.window;
  hinch::run_on_threads(*prog.value(), run, config.workers, nullptr,
                        &metrics);

  MjpegDecodeResult result;
  result.frames_done_metric = metrics.get_int("live.iterations_done");
  for (int i = 0; i < prog.value()->component_count(); ++i) {
    auto* sink = dynamic_cast<const components::SinkAccess*>(
        &prog.value()->component(i));
    if (!sink) continue;
    result.checksum = sink->sink().checksum();
    result.frames = sink->sink().frames();
    break;
  }
  return result;
}

}  // namespace apps
