#include "xspcl/platform_xml.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <map>

#include "sim/cache.hpp"
#include "support/strings.hpp"
#include "xml/parser.hpp"

namespace xspcl {
namespace {

support::Status err_at(xml::Position pos, const std::string& what) {
  return support::invalid_argument(support::format(
      "platform spec at %d:%d: %s", pos.line, pos.column, what.c_str()));
}

// Rejects any attribute of `el` outside `known`: a typo such as
// hop_cycle_per_chunk= must not silently fall back to a default.
support::Status known_attrs(const xml::Element& el,
                            std::initializer_list<std::string_view> known) {
  for (const xml::Attribute& a : el.attributes()) {
    if (std::find(known.begin(), known.end(), a.name) == known.end())
      return err_at(el.position(), "unknown attribute '" + a.name +
                                       "' of <" + el.name() + ">");
  }
  return support::Status::ok();
}

support::Result<int64_t> int_attr(const xml::Element& el,
                                  std::string_view name, int64_t fallback) {
  const std::string* raw = el.find_attr(name);
  if (raw == nullptr) return fallback;
  auto parsed = support::parse_int(*raw);
  if (!parsed.is_ok())
    return err_at(el.position(),
                  "attribute '" + std::string(name) + "' of <" + el.name() +
                      ">: " + parsed.status().message());
  return parsed;
}

support::Result<double> double_attr(const xml::Element& el,
                                    std::string_view name, double fallback) {
  const std::string* raw = el.find_attr(name);
  if (raw == nullptr) return fallback;
  auto parsed = support::parse_double(*raw);
  if (!parsed.is_ok())
    return err_at(el.position(),
                  "attribute '" + std::string(name) + "' of <" + el.name() +
                      ">: " + parsed.status().message());
  return parsed;
}

}  // namespace

support::Result<sim::PlatformConfig> parse_platform(const xml::Element& root) {
  if (root.name() != "platform")
    return err_at(root.position(),
                  "expected <platform> root, got <" + root.name() + ">");

  SUP_RETURN_IF_ERROR(known_attrs(
      root, {"name", "topology", "mesh_width", "hop_cycles_per_chunk"}));
  sim::PlatformConfig platform;
  platform.name = root.attr_or("name", "spacecake");

  const std::string topology = root.attr_or("topology", "crossbar");
  if (topology == "crossbar") {
    platform.topology = sim::Topology::kCrossbar;
  } else if (topology == "ring") {
    platform.topology = sim::Topology::kRing;
  } else if (topology == "mesh") {
    platform.topology = sim::Topology::kMesh;
  } else {
    return err_at(root.position(), "unknown topology '" + topology +
                                       "' (crossbar | ring | mesh)");
  }
  SUP_ASSIGN_OR_RETURN(int64_t mesh_width,
                       int_attr(root, "mesh_width", 0));
  if (mesh_width < 0 || mesh_width > sim::kMaxCores)
    return err_at(root.position(),
                  support::format("mesh_width must be in [0, %d]",
                                  sim::kMaxCores));
  platform.mesh_width = static_cast<int>(mesh_width);

  SUP_ASSIGN_OR_RETURN(
      int64_t hop,
      int_attr(root, "hop_cycles_per_chunk",
               static_cast<int64_t>(platform.hop_cycles_per_chunk)));
  if (hop < 0)
    return err_at(root.position(), "hop_cycles_per_chunk must be >= 0");
  platform.hop_cycles_per_chunk = static_cast<sim::Cycles>(hop);

  std::map<std::string, int> class_index;
  for (const xml::ElementPtr& child : root.children()) {
    const xml::Element& el = *child;
    if (el.name() == "coreclass") {
      SUP_RETURN_IF_ERROR(known_attrs(el, {"name", "cycle_multiplier"}));
      sim::CoreClass cls;
      cls.name = el.attr_or("name",
                            "class" + std::to_string(platform.classes.size()));
      if (class_index.count(cls.name))
        return err_at(el.position(),
                      "duplicate core class '" + cls.name + "'");
      SUP_ASSIGN_OR_RETURN(cls.cycle_multiplier,
                           double_attr(el, "cycle_multiplier", 1.0));
      if (!(cls.cycle_multiplier > 0.0) ||
          !std::isfinite(cls.cycle_multiplier))
        return err_at(el.position(),
                      "cycle_multiplier must be positive and finite");
      class_index[cls.name] = static_cast<int>(platform.classes.size());
      platform.classes.push_back(std::move(cls));
    } else if (el.name() == "tile") {
      SUP_RETURN_IF_ERROR(
          known_attrs(el, {"cores", "class", "l2_bytes", "count"}));
      sim::TileSpec tile;
      SUP_ASSIGN_OR_RETURN(int64_t cores, int_attr(el, "cores", 0));
      if (cores < 1)
        return err_at(el.position(), "<tile> needs cores >= 1");
      if (cores > sim::kMaxCores)
        return err_at(el.position(),
                      support::format("<tile> cores exceeds kMaxCores (%d)",
                                      sim::kMaxCores));
      tile.cores = static_cast<int>(cores);
      if (const std::string* cls = el.find_attr("class")) {
        auto it = class_index.find(*cls);
        if (it == class_index.end())
          return err_at(el.position(), "unknown core class '" + *cls +
                                           "' (declare <coreclass> first)");
        tile.core_class = it->second;
      } else if (!platform.classes.empty()) {
        tile.core_class = 0;  // first declared class is the default
      }
      SUP_ASSIGN_OR_RETURN(int64_t l2, int_attr(el, "l2_bytes", 0));
      if (l2 < 0) return err_at(el.position(), "l2_bytes must be >= 0");
      tile.l2_bytes = static_cast<uint64_t>(l2);
      SUP_ASSIGN_OR_RETURN(int64_t count, int_attr(el, "count", 1));
      if (count < 1) return err_at(el.position(), "count must be >= 1");
      if (count > sim::kMaxCores)
        return err_at(el.position(),
                      support::format("count exceeds kMaxCores (%d)",
                                      sim::kMaxCores));
      // cores and count are each <= kMaxCores, so the product cannot
      // overflow; the running total keeps the whole platform in bounds.
      if (platform.total_cores() + cores * count > sim::kMaxCores)
        return err_at(el.position(),
                      support::format("platform exceeds kMaxCores (%d) cores",
                                      sim::kMaxCores));
      platform.tiles.insert(platform.tiles.end(), static_cast<size_t>(count),
                            tile);
      // The running platform under the default cache geometry, which is
      // the one xspclc simulates with.
      const uint64_t dir =
          sim::MemorySystem::directory_bytes(sim::CacheConfig{}, platform);
      if (dir > sim::kMaxDirectoryBytes)
        return err_at(el.position(),
                      support::format(
                          "platform needs %llu MiB of cache-model directory "
                          "(tiles x per-tile L2), above the %llu MiB bound",
                          static_cast<unsigned long long>(dir >> 20),
                          static_cast<unsigned long long>(
                              sim::kMaxDirectoryBytes >> 20)));
    } else {
      return err_at(el.position(),
                    "unknown element <" + el.name() +
                        "> in <platform> (coreclass | tile)");
    }
  }

  if (platform.tiles.empty())
    return err_at(root.position(), "<platform> declares no <tile>");
  if (platform.topology == sim::Topology::kMesh && platform.mesh_width < 1)
    return err_at(root.position(),
                  "mesh topology needs mesh_width >= 1");
  return platform;
}

support::Result<sim::PlatformConfig> load_platform_string(
    std::string_view text) {
  SUP_ASSIGN_OR_RETURN(xml::ElementPtr root, xml::parse(text));
  return parse_platform(*root);
}

support::Result<sim::PlatformConfig> load_platform_file(
    const std::string& path) {
  SUP_ASSIGN_OR_RETURN(xml::ElementPtr root, xml::parse_file(path));
  return parse_platform(*root);
}

}  // namespace xspcl
