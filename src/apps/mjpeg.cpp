#include "apps/mjpeg.hpp"

#include "apps/jpip.hpp"
#include "components/components.hpp"
#include "components/sinks.hpp"
#include "hinch/runtime.hpp"
#include "obs/metrics.hpp"
#include "support/strings.hpp"
#include "xspcl/loader.hpp"

namespace apps {
namespace {

using support::format;

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
      "      <call procedure=\"jpeg_chain\" name=\"dec\">\n"
      "        <arg name=\"jpeg\" stream=\"jpeg\"/>\n"
      "        <arg name=\"py\" stream=\"py\"/>\n"
      "        <arg name=\"pu\" stream=\"pu\"/>\n"
      "        <arg name=\"pv\" stream=\"pv\"/>\n"
      "        <arg name=\"slices\" value=\"%d\"/>\n"
      "        <arg name=\"reentrant\" value=\"true\"/>\n"
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
  out += jpeg_chain_procedure();
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
