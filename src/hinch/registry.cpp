#include "hinch/registry.hpp"

#include <algorithm>

namespace hinch {

void ComponentRegistry::register_class(const std::string& name,
                                       Factory factory, bool reentrant) {
  SUP_CHECK_MSG(!factories_.count(name), "component class already registered");
  factories_[name] = Entry{std::move(factory), reentrant};
}

bool ComponentRegistry::has_class(const std::string& name) const {
  return factories_.count(name) != 0;
}

bool ComponentRegistry::is_reentrant(const std::string& name) const {
  auto it = factories_.find(name);
  return it != factories_.end() && it->second.reentrant;
}

std::vector<std::string> ComponentRegistry::class_names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, f] : factories_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

support::Result<std::unique_ptr<Component>> ComponentRegistry::create(
    const std::string& klass, const ComponentConfig& config) const {
  auto it = factories_.find(klass);
  if (it == factories_.end())
    return support::not_found("unknown component class '" + klass +
                              "' (instance '" + config.instance + "')");
  auto result = it->second.factory(config);
  if (result.is_ok()) result.value()->set_instance(config.instance);
  return result;
}

ComponentRegistry& ComponentRegistry::global() {
  static ComponentRegistry registry;
  return registry;
}

}  // namespace hinch
