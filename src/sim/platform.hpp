// Platform description for the simulator — the MGSim-direction "make
// the simulated platform data, not code" surface (ROADMAP).
//
// The paper evaluates one SpaceCAKE tile of homogeneous TriMedia cores
// (§4); a PlatformConfig generalizes that to
//
//   core classes   cycle-cost multipliers (a DVFS-style frequency
//                  model: multiplier 2.0 = the core needs twice the
//                  cycles for the same compute charge),
//   tiles          N cores of one class sharing one L2 (capacity per
//                  tile, defaulting to CacheConfig::l2_bytes), and
//   interconnect   a hop-count topology (crossbar / ring / mesh) with a
//                  per-chunk-per-hop transfer cost charged when a fetch
//                  is served from another tile's L2.
//
// A PlatformConfig is the only description of the simulated machine:
// sim::MemorySystem takes its cores, core->tile map, per-tile L2s and
// hops from it, and the executor its core classes. An empty one
// ("tiles" unset) stands for a single tile of SimParams.cores baseline
// cores — the paper's machine — which the executor substitutes before
// building anything, so every figure stays byte-identical. The central
// job queue always hands the next job to the lowest-numbered idle core.
// Specs are usually loaded from XML (xspcl/platform_xml.hpp,
// `xspclc run --platform=`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace sim {

// Inter-tile hop-count model. Hops between a tile and itself are 0.
enum class Topology {
  kCrossbar,  // any two distinct tiles are 1 hop apart
  kRing,      // min(|a-b|, n-|a-b|) hops
  kMesh,      // Manhattan distance on a grid of `mesh_width` columns
};

// Upper bound on a platform's total core count, and so on any one
// tile's `cores` and repeat `count`. check() enforces it for every
// simulated machine (SimParams.cores included) and the XML loader
// reports it with a position. The flat cache engine keeps per-cache
// LRU links for every resident chunk, so its state grows with cores x
// capacity; 1024 is four times the largest committed platform
// (specs/platform_256.xml).
inline constexpr int kMaxCores = 1024;

struct CoreClass {
  std::string name = "core";
  // Compute-cycle scaling: charged compute cycles are multiplied by
  // this before being spent on the core (1.0 = the TriMedia baseline,
  // 2.0 = a half-frequency core). Memory stall cycles are platform
  // latencies and are not scaled.
  double cycle_multiplier = 1.0;
};

struct TileSpec {
  int cores = 0;        // cores on this tile (all of one class)
  int core_class = 0;   // index into PlatformConfig::classes
  uint64_t l2_bytes = 0;  // per-tile shared L2; 0 = CacheConfig::l2_bytes
};

struct PlatformConfig {
  std::string name = "spacecake";
  // Empty `classes` means one implicit baseline class (multiplier 1.0).
  std::vector<CoreClass> classes;
  // Empty `tiles` means "unset": the executor substitutes a single tile
  // of SimParams.cores baseline cores (the paper's machine).
  std::vector<TileSpec> tiles;
  Topology topology = Topology::kCrossbar;
  int mesh_width = 0;  // columns for kMesh; ignored otherwise
  // Interconnect transfer cost per chunk per hop, charged on top of
  // l2_cycles_per_chunk when a fetch is served by a remote tile's L2.
  Cycles hop_cycles_per_chunk = 64;

  bool empty() const { return tiles.empty(); }
  int tile_count() const { return static_cast<int>(tiles.size()); }
  int total_cores() const;

  // Structural validation, kMaxCores included (aborts via SUP_CHECK on
  // an invalid config; the XML loader reports the same conditions as
  // positioned errors).
  void check() const;

  // Flattened per-core views, in tile order (tile 0's cores first).
  std::vector<int> tile_map() const;            // core -> tile index
  std::vector<double> core_multipliers() const; // core -> cycle multiplier

  // Hop count between two tiles under the configured topology.
  int hops(int tile_a, int tile_b) const;

  // Convenience factory: `tiles` tiles of `cores_per_tile` baseline
  // cores each (the tile-count-scaling bench axis).
  static PlatformConfig homogeneous(int tiles, int cores_per_tile);
};

}  // namespace sim
