#include "obs/chrome_export.hpp"

#include <cinttypes>
#include <cstdio>

namespace obs {
namespace {

void append_escaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

// ts/dur fields: cycles map 1:1 onto the format's microsecond unit;
// wall-clock nanoseconds become fractional microseconds.
void append_time(std::string* out, uint64_t t, ClockDomain clock) {
  char buf[40];
  if (clock == ClockDomain::kCycles) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64, t);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", t / 1000,
                  static_cast<unsigned>(t % 1000));
  }
  *out += buf;
}

}  // namespace

std::string to_chrome_json(const TraceSession& session) {
  const std::vector<std::string> names = session.names();
  const ClockDomain clock = session.clock();
  const char* lane_prefix = clock == ClockDomain::kCycles ? "core" : "worker";

  std::string out;
  out += "{\n";
  out += "  \"displayTimeUnit\": \"ms\",\n";
  out += "  \"otherData\": {\"clock\": \"";
  out += clock == ClockDomain::kCycles ? "cycles" : "wall_ns";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\", \"lanes\": %d, \"emitted\": %" PRIu64
                ", \"dropped\": %" PRIu64 "},\n",
                session.lanes(), session.emitted(), session.dropped());
  out += buf;
  out += "  \"traceEvents\": [\n";

  // Every event carries pid 0: one trace is one session.
  bool first = true;
  auto emit_line = [&](const std::string& line) {
    if (!first) out += ",\n";
    first = false;
    out += line;
  };

  // Lane-name metadata so the UI labels rows "core 0" / "worker 3" —
  // or a custom per-lane name when the session carries one (multi-tile
  // sim runs label lanes "tile<t>.core<c>").
  for (int lane = 0; lane < session.lanes(); ++lane) {
    const std::string& custom = session.lane_name(lane);
    if (!custom.empty()) {
      std::string line =
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" +
          std::to_string(lane) + ",\"args\":{\"name\":\"";
      append_escaped(&line, custom);
      line += "\"}}";
      emit_line(line);
      continue;
    }
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"tid\":%d,\"args\":{\"name\":\"%s %d\"}}",
                  lane, lane_prefix, lane);
    emit_line(buf);
  }

  for (int lane = 0; lane < session.lanes(); ++lane) {
    for (const TraceEvent& ev : session.recorder(lane)->collect()) {
      std::string line = "{\"name\":\"";
      if (ev.name < names.size())
        append_escaped(&line, names[ev.name]);
      else
        line += "?";
      line += "\",\"cat\":\"";
      line += category_name(ev.cat);
      line += "\",\"ph\":\"";
      switch (ev.kind) {
        case EventKind::kSpan: {
          line += "X\",\"ts\":";
          append_time(&line, ev.ts, clock);
          line += ",\"dur\":";
          append_time(&line, ev.dur, clock);
          std::snprintf(buf, sizeof(buf),
                        ",\"pid\":0,\"tid\":%d,\"args\":{\"iter\":%" PRId64
                        ",\"task\":%d}}",
                        lane, ev.value, ev.arg);
          line += buf;
          break;
        }
        case EventKind::kInstant: {
          // Reconfiguration markers get global scope so they draw a
          // full-height line across every lane in the UI.
          line += "i\",\"s\":\"";
          line += ev.cat == Category::kReconfig ? "g" : "t";
          line += "\",\"ts\":";
          append_time(&line, ev.ts, clock);
          std::snprintf(buf, sizeof(buf),
                        ",\"pid\":0,\"tid\":%d,\"args\":{\"iter\":%" PRId64
                        ",\"task\":%d}}",
                        lane, ev.value, ev.arg);
          line += buf;
          break;
        }
        case EventKind::kCounter: {
          line += "C\",\"ts\":";
          append_time(&line, ev.ts, clock);
          std::snprintf(buf, sizeof(buf),
                        ",\"pid\":0,\"tid\":%d,\"args\":{\"value\":%" PRId64
                        "}}",
                        lane, ev.value);
          line += buf;
          break;
        }
      }
      emit_line(line);
    }
  }

  out += "\n  ]\n}\n";
  return out;
}

bool write_chrome_trace(const TraceSession& session,
                        const std::string& path) {
  const std::string json = to_chrome_json(session);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot open trace output '%s'\n",
                 path.c_str());
    return false;
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  bool ok = std::fclose(f) == 0 && written == json.size();
  if (!ok)
    std::fprintf(stderr, "obs: short write to trace output '%s'\n",
                 path.c_str());
  return ok;
}

}  // namespace obs
