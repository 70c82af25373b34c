#include "sim/platform.hpp"

#include <cmath>
#include <cstdlib>

#include "support/check.hpp"

namespace sim {

int PlatformConfig::total_cores() const {
  int total = 0;
  for (const TileSpec& t : tiles) total += t.cores;
  return total;
}

void PlatformConfig::check() const {
  SUP_CHECK_MSG(!tiles.empty(), "platform has no tiles");
  const int nclasses =
      classes.empty() ? 1 : static_cast<int>(classes.size());
  for (const CoreClass& c : classes) {
    SUP_CHECK_MSG(c.cycle_multiplier > 0.0 &&
                      std::isfinite(c.cycle_multiplier),
                  "core-class cycle multiplier must be positive and finite");
  }
  int64_t cores = 0;
  for (const TileSpec& t : tiles) {
    SUP_CHECK_MSG(t.cores >= 1, "tile must have at least one core");
    SUP_CHECK_MSG(t.core_class >= 0 && t.core_class < nclasses,
                  "tile references an unknown core class");
    cores += t.cores;
    SUP_CHECK_MSG(cores <= kMaxCores, "platform exceeds kMaxCores cores");
  }
  if (topology == Topology::kMesh)
    SUP_CHECK_MSG(mesh_width >= 1, "mesh topology needs mesh_width >= 1");
}

std::vector<int> PlatformConfig::tile_map() const {
  std::vector<int> map;
  map.reserve(static_cast<size_t>(total_cores()));
  for (size_t t = 0; t < tiles.size(); ++t)
    for (int c = 0; c < tiles[t].cores; ++c)
      map.push_back(static_cast<int>(t));
  return map;
}

std::vector<double> PlatformConfig::core_multipliers() const {
  std::vector<double> mult;
  mult.reserve(static_cast<size_t>(total_cores()));
  for (const TileSpec& t : tiles) {
    double m = classes.empty()
                   ? 1.0
                   : classes[static_cast<size_t>(t.core_class)]
                         .cycle_multiplier;
    for (int c = 0; c < t.cores; ++c) mult.push_back(m);
  }
  return mult;
}

int PlatformConfig::hops(int tile_a, int tile_b) const {
  if (tile_a == tile_b) return 0;
  switch (topology) {
    case Topology::kCrossbar:
      return 1;
    case Topology::kRing: {
      int d = std::abs(tile_a - tile_b);
      return d < tile_count() - d ? d : tile_count() - d;
    }
    case Topology::kMesh: {
      SUP_DCHECK(mesh_width >= 1);
      int ax = tile_a % mesh_width, ay = tile_a / mesh_width;
      int bx = tile_b % mesh_width, by = tile_b / mesh_width;
      return std::abs(ax - bx) + std::abs(ay - by);
    }
  }
  return 1;
}

PlatformConfig PlatformConfig::homogeneous(int tiles, int cores_per_tile) {
  SUP_CHECK(tiles >= 1 && cores_per_tile >= 1);
  PlatformConfig p;
  p.tiles.assign(static_cast<size_t>(tiles),
                 TileSpec{cores_per_tile, 0, 0});
  return p;
}

}  // namespace sim
