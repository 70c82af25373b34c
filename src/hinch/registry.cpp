// Note: registration is explicit (components::register_standard) rather
// than via static initializers, which a static library would silently
// drop at link time.
#include "hinch/registry.hpp"

#include "support/strings.hpp"

namespace hinch {

ParamSpec int_param(std::string name, int64_t lo, int64_t hi,
                    int64_t fallback) {
  return {std::move(name), ParamSpec::Kind::kInt, lo, hi,
          ParamSpec::Presence::kDefault, fallback};
}

ParamSpec int_param(std::string name, int64_t lo, int64_t hi,
                    ParamSpec::Presence presence) {
  return {std::move(name), ParamSpec::Kind::kInt, lo, hi, presence, {}};
}

ParamSpec string_param(std::string name, std::string fallback) {
  return {std::move(name), ParamSpec::Kind::kString, 0, 0,
          ParamSpec::Presence::kDefault, std::move(fallback)};
}

ParamSpec string_param(std::string name, ParamSpec::Presence presence) {
  return {std::move(name), ParamSpec::Kind::kString, 0, 0, presence, {}};
}

bool Params::has(std::string_view name) const {
  return values_.find(name) != values_.end();
}

int64_t Params::get_int(std::string_view name) const {
  auto it = values_.find(name);
  SUP_CHECK_MSG(it != values_.end() &&
                    std::holds_alternative<int64_t>(it->second),
                "no such int param");
  return std::get<int64_t>(it->second);
}

const std::string& Params::get_string(std::string_view name) const {
  auto it = values_.find(name);
  SUP_CHECK_MSG(it != values_.end() &&
                    std::holds_alternative<std::string>(it->second),
                "no such string param");
  return std::get<std::string>(it->second);
}

void Params::set(std::string name, std::variant<int64_t, std::string> value) {
  values_[std::move(name)] = std::move(value);
}

support::Result<Params> ClassInfo::check_params(
    const std::vector<sp::Param>& given) const {
  Params out;
  for (const sp::Param& p : given) {
    const ParamSpec* spec = nullptr;
    for (const ParamSpec& s : params)
      if (s.name == p.name) spec = &s;
    if (!spec)
      return support::invalid_argument("unknown param '" + p.name + "'");
    if (out.has(p.name))
      return support::already_exists("param '" + p.name + "' is given twice");
    if (spec->kind == ParamSpec::Kind::kString) {
      out.set(p.name, p.value);
      continue;
    }
    auto v = support::parse_int_in(p.value, spec->lo, spec->hi);
    if (!v.is_ok())
      return support::Status(v.status().code(), "param '" + p.name + "': " +
                                                     v.status().message());
    out.set(p.name, v.value());
  }
  for (const ParamSpec& s : params) {
    if (out.has(s.name)) continue;
    if (s.presence == ParamSpec::Presence::kRequired)
      return support::invalid_argument("param '" + s.name + "' is required");
    if (s.presence == ParamSpec::Presence::kDefault)
      out.set(s.name, s.fallback);
  }
  return out;
}

void ComponentRegistry::register_class(ClassInfo info) {
  SUP_CHECK_MSG(!classes_.count(info.name),
                "component class already registered");
  std::string name = info.name;
  classes_.emplace(std::move(name), std::move(info));
}

const ClassInfo* ComponentRegistry::find(std::string_view name) const {
  auto it = classes_.find(name);
  return it == classes_.end() ? nullptr : &it->second;
}

ComponentRegistry& ComponentRegistry::global() {
  static ComponentRegistry registry;
  return registry;
}

}  // namespace hinch
