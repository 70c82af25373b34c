// perfbench --workload <mjpeg_1080p|tenants_open|jpip_sim> --seed <n>
//           --seconds <s> --trace <0|1> [--source-id <id>] [--out-dir <dir>]
//
// Runs one workload, checks its outputs, and prints "# ..." report lines
// followed by one JSON line: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics (tracing off);
// --trace 1 reports the per-layer metrics of a separate traced run and
// writes its benchmark spans to <out-dir>/spans_<workload>.json.
// Exit status: 0 when every output check passed, 1 when one failed, 2 on
// a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "components/components.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <mjpeg_1080p|tenants_open|"
               "jpip_sim> --seed <n> --seconds <s> --trace <0|1> "
               "[--source-id <id>] [--out-dir <dir>]\n");
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string source_id = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--source-id") {
      source_id = value;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(opt.seconds > 0) || opt.seconds > 600)
    return usage();

  components::register_standard_globally();
  perfbench::SpanLog log(opt.trace);
  perfbench::Report report;
  perfbench::add_layer_defaults(&report);
  if (opt.workload == "mjpeg_1080p")
    perfbench::run_mjpeg(opt, log, &report);
  else if (opt.workload == "tenants_open")
    perfbench::run_tenants(opt, log, &report);
  else if (opt.workload == "jpip_sim")
    perfbench::run_jpip(opt, log, &report);
  else
    return usage();

  report.add_e2e("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  report.add_e2e("output_ok_frac",
                 report.attempted == 0
                     ? 0
                     : 1.0 - static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted),
                 "ratio", "output checks attempted");
  if (opt.trace) {
    std::string path = opt.out_dir + "/spans_" + opt.workload + ".json";
    if (!log.write_json(path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }

  std::printf("# context {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"source\": \"%s\", "
              "\"host\": %s}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, source_id.c_str(),
              perfbench::host_context_json().c_str());
  for (const auto* list : {&report.e2e, &report.layer}) {
    const char* kind = list == &report.e2e ? "e2e" : "layer";
    if (list == &report.layer && !opt.trace) continue;
    for (const perfbench::Metric& m : *list)
      std::printf("# %s %-40s %14.6g %s%s%s\n", kind, m.name.c_str(), m.value,
                  m.unit.c_str(), m.base.empty() ? "" : "  (base: ",
                  m.base.empty() ? "" : (m.base + ")").c_str());
  }
  for (const std::string& n : report.notes) std::printf("# note %s\n", n.c_str());
  for (const std::string& f : report.failures)
    std::fprintf(stderr, "perfbench: FAILED check: %s\n", f.c_str());

  const std::vector<perfbench::Metric>& out =
      opt.trace ? report.layer : report.e2e;
  std::string metrics;
  for (const perfbench::Metric& m : out) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  bool correct = report.failed == 0 && report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
