// Component class registry: maps the `class` attribute of an XSPCL
// component tag (§3.1) to the class's descriptor. A ClassInfo is the
// whole interface of a class — its ports, its params and whether it is
// reentrant — so Program::build checks every leaf against it before any
// factory runs. The standard component library (src/components)
// registers itself into the global registry; embedders can register
// their own classes or use private registries in tests.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "hinch/component.hpp"
#include "sp/graph.hpp"
#include "support/status.hpp"

namespace hinch {

// One declared param of a class: an int in [lo, hi] or a string, and what
// an absent param becomes.
struct ParamSpec {
  enum class Kind { kInt, kString };
  enum class Presence {
    kDefault,   // absent: takes `fallback`
    kRequired,  // absent: the leaf is an error
    kOptional,  // absent: stays absent (Params::has is false)
  };

  std::string name;
  Kind kind = Kind::kInt;
  int64_t lo = 0;  // kInt only
  int64_t hi = 0;
  Presence presence = Presence::kDefault;
  std::variant<int64_t, std::string> fallback;  // kDefault only
};

ParamSpec int_param(std::string name, int64_t lo, int64_t hi,
                    int64_t fallback);
ParamSpec int_param(std::string name, int64_t lo, int64_t hi,
                    ParamSpec::Presence presence);
ParamSpec string_param(std::string name, std::string fallback);
ParamSpec string_param(std::string name, ParamSpec::Presence presence);

// A leaf's params after the check against its ClassInfo: every declared
// param with a default is present, and every value has its declared
// kind and lies in its range. Asking for an undeclared name or the
// wrong kind is a programming error.
class Params {
 public:
  // False only for an absent kOptional param.
  bool has(std::string_view name) const;
  int64_t get_int(std::string_view name) const;
  const std::string& get_string(std::string_view name) const;

 private:
  friend struct ClassInfo;  // check_params fills the values
  void set(std::string name, std::variant<int64_t, std::string> value);

  std::map<std::string, std::variant<int64_t, std::string>, std::less<>>
      values_;
};

using Factory =
    std::function<support::Result<std::unique_ptr<Component>>(const Params&)>;

struct ClassInfo {
  std::string name;
  Factory factory;
  // Port names; a component addresses its ports by index into these.
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::vector<ParamSpec> params;
  // The class keeps no state from one run to the next, so instances of
  // different iterations may run at once; a spec still has to opt each
  // instance in (the `reentrant` attribute of <component>).
  bool reentrant = false;

  // Typed params of a leaf: each given name declared and given once,
  // each value of its kind and in range, defaults filled in.
  support::Result<Params> check_params(
      const std::vector<sp::Param>& given) const;
};

class ComponentRegistry {
 public:
  // Registering the same class twice is a programming error.
  void register_class(ClassInfo info);
  // nullptr when no class of that name is registered.
  const ClassInfo* find(std::string_view name) const;
  // Every registered class, by name.
  const std::map<std::string, ClassInfo, std::less<>>& classes() const {
    return classes_;
  }

  // Process-wide registry used by the standard library and tools.
  static ComponentRegistry& global();

 private:
  std::map<std::string, ClassInfo, std::less<>> classes_;
};

}  // namespace hinch
