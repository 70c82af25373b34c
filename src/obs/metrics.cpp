#include "obs/metrics.hpp"

#include <cinttypes>
#include <cstdio>

#include "support/strings.hpp"

namespace obs {
namespace {

void append_escaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      *out += buf;
    } else {
      *out += c;
    }
  }
}

void append_value(std::string* out, const MetricValue& m) {
  if (m.is_double) {
    support::append_double(out, m.d);
  } else {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRId64, m.i);
    *out += buf;
  }
}

}  // namespace

int64_t MetricsRegistry::Snapshot::get_int(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second.as_int();
}

double MetricsRegistry::Snapshot::get_double(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second.as_double();
}

bool MetricsRegistry::Snapshot::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string MetricsRegistry::Snapshot::to_text() const {
  std::string out;
  for (const auto& [name, m] : values_) {
    out += name;
    out += ' ';
    append_value(&out, m);
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::Snapshot::to_json() const {
  std::string out = "{\n";
  bool first = true;
  for (const auto& [name, m] : values_) {
    if (!first) out += ",\n";
    first = false;
    out += "  \"";
    append_escaped(&out, name);
    out += "\": ";
    append_value(&out, m);
  }
  out += "\n}\n";
  return out;
}

void MetricsRegistry::set(const std::string& name, int64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_[name] = MetricValue{false, value, 0};
}

void MetricsRegistry::set(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_[name] = MetricValue{true, 0, value};
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  snap.values_ = metrics_;
  return snap;
}

}  // namespace obs
