// Component class registry: maps the `class` attribute of an XSPCL
// component tag (§3.1) to a factory. The standard component library
// (src/components) registers itself into the global registry; embedders
// can register their own classes or use private registries in tests.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hinch/component.hpp"
#include "support/status.hpp"

namespace hinch {

class ComponentRegistry {
 public:
  using Factory = std::function<support::Result<std::unique_ptr<Component>>(
      const ComponentConfig&)>;

  // Registering the same class twice is a programming error. A class
  // registered `reentrant` keeps no state from one run to the next, so
  // instances of different iterations may run at once; a spec still has
  // to opt each instance in (the `reentrant` attribute of <component>).
  void register_class(const std::string& name, Factory factory,
                      bool reentrant = false);
  bool has_class(const std::string& name) const;
  bool is_reentrant(const std::string& name) const;
  std::vector<std::string> class_names() const;

  support::Result<std::unique_ptr<Component>> create(
      const std::string& klass, const ComponentConfig& config) const;

  // Process-wide registry used by the standard library and tools.
  static ComponentRegistry& global();

 private:
  struct Entry {
    Factory factory;
    bool reentrant = false;
  };
  std::unordered_map<std::string, Entry> factories_;
};

}  // namespace hinch

// Note: registration is explicit (components::register_standard) rather
// than via static initializers, which a static library would silently
// drop at link time.
