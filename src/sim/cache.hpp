// Memory-hierarchy model of one SpaceCAKE tile (§4 of the paper: each
// TriMedia core has a private L1, and the tile's cores share one L2).
//
// The simulated machine is exactly that tile: N <= kMaxCores homogeneous
// cores, so the model has N L1s and one L2. An earlier version also
// modelled several tiles (per-tile L2s, a hop-count interconnect, core
// classes of different speeds and presence masks wider than one word);
// no figure, ablation or benchmark ran more than one tile, so it was
// deleted. Git history (commit 365d569 and before) holds it.
//
// The model has no clock of its own: it turns each access into stall
// Cycles, and the simulator's event loop (hinch/sim_executor.cpp) adds
// them to the job's cost in virtual time.
//
// Granularity is a "chunk" (default 1 KiB) rather than a cache line: the
// workloads stream whole image rows, so chunk-level LRU reproduces the
// relevant behaviour — the paper's finding that splitting fused kernels
// into stream-connected components increases misses (§4.1) — at a small
// fraction of the bookkeeping cost.
//
// Charging policy per touched chunk:
//   in own L1     -> 0 extra cycles (L1 hit cost is folded into the
//                    kernels' compute-cycle constants)
//   in the L2     -> l2_cycles_per_chunk
//   in no cache   -> mem_cycles_per_chunk
// Writes invalidate other cores' L1 copies (MSI-style coherence).
//
// The structure is a shared chunk *directory*: one pooled node per
// resident chunk (index-linked, no per-touch allocation) found by
// indexing its region's chunk -> node array (chunk indices are dense
// within a region, so no hashing); per-cache intrusive LRU lists thread
// through per-cache prev/next arrays indexed by the node id; a per-chunk
// presence word (one bit per L1 plus one for the L2) makes a write
// invalidation a mask read plus targeted erases; and release_region is
// one scan of that array. A naive model of the same semantics
// (tests/test_sim.cpp, CacheEquivalenceTest) is its oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sim {

// Simulated clock cycles.
using Cycles = uint64_t;

using RegionId = uint32_t;

// Upper bound on the simulated machine's core count. The directory
// keeps one presence bit per L1 plus one for the L2 in a single 64-bit
// word per resident chunk.
inline constexpr int kMaxCores = 63;
static_assert(kMaxCores + 1 <= 64,
              "every L1 plus the L2 must fit one presence word");

// Cache geometry and latencies. The core count is handed to
// MemorySystem alongside.
struct CacheConfig {
  uint64_t l1_bytes = 16 * 1024;  // per core (TriMedia-like)
  // SpaceCAKE tiles carry a large shared embedded-DRAM L2. 16 MiB holds
  // every sequential application's working set and the pipelined PiP
  // ones, but not the 5-deep pipelined JPiP working set (5 slots of
  // 2.7 MiB coefficient images plus the decoded planes) — the regime
  // behind the paper's Fig. 8, where JPiP alone pays heavily.
  uint64_t l2_bytes = 16 * 1024 * 1024;
  uint32_t chunk_bytes = 1024;
  Cycles l2_cycles_per_chunk = 192;   // ~12 cycles per 64 B line
  Cycles mem_cycles_per_chunk = 640;  // ~40 cycles per 64 B line
};

struct MemStats {
  uint64_t accesses = 0;   // chunk touches
  uint64_t l1_hits = 0;
  uint64_t l2_hits = 0;
  uint64_t mem_fetches = 0;
  uint64_t invalidations = 0;  // L1 copies invalidated by writes
  Cycles stall_cycles = 0;

  double l1_hit_rate() const {
    return accesses ? static_cast<double>(l1_hits) / static_cast<double>(accesses)
                    : 0.0;
  }

  bool operator==(const MemStats&) const = default;
};

// Per-region slice of the access statistics (the §4.1 JPiP miss
// analysis: which buffer pays the misses). Retained after release.
struct RegionStats {
  RegionId id = 0;
  std::string label;
  uint64_t bytes = 0;
  bool active = false;
  uint64_t accesses = 0;
  uint64_t l1_hits = 0;
  uint64_t l2_hits = 0;
  uint64_t mem_fetches = 0;
  uint64_t invalidations = 0;
  Cycles stall_cycles = 0;
};

class MemorySystem {
 public:
  // A tile of `cores` cores; aborts unless 1 <= cores <= kMaxCores.
  MemorySystem(const CacheConfig& config, int cores);

  // Register a buffer the simulated application will touch. `label` is
  // kept for the per-region statistics dump.
  RegionId register_region(uint64_t bytes, std::string label);
  void release_region(RegionId id);

  // Charge the stall cycles for core `core` touching bytes
  // [offset, offset+len) of `region`. `write` additionally invalidates
  // other cores' L1 copies. Returns the stall cycles (also accumulated
  // in stats()).
  Cycles access(int core, RegionId region, uint64_t offset, uint64_t len,
                bool write);

  const MemStats& stats() const { return stats_; }
  void reset_stats() { stats_ = MemStats{}; }

  // Per-region access/miss/stall breakdown in registration order,
  // including released regions (their counters stop but are kept).
  std::vector<RegionStats> region_stats() const;

 private:
  // Region bookkeeping + accumulated statistics, indexed by RegionId
  // (ids are dense: 1, 2, ...).
  struct Region {
    uint64_t bytes = 0;
    bool active = false;
    // The directory node of each chunk, -1 while the chunk is in no
    // cache.
    std::vector<int32_t> chunk_node;
    std::string label;
    RegionStats stats;  // id/label/bytes mirrored into the dump lazily
  };

  // Directory node: one per chunk resident in at least one cache,
  // naming its region and chunk so eviction can clear the region's
  // chunk_node entry. Cache index space: [0, cores) are the per-core
  // L1s, cache `cores` is the L2. The presence word has bit i set when
  // cache i holds the chunk. LRU prev/next links live in per-cache
  // stripes of links_ (stride = node-pool capacity), so membership and
  // recency updates are index arithmetic on flat arrays.
  struct DirNode {
    uint64_t mask = 0;  // presence bits
    RegionId region = 0;
    uint32_t chunk = 0;
  };
  struct Links {
    int32_t prev = -1;
    int32_t next = -1;
  };
  struct LruList {
    int32_t head = -1;  // most recent
    int32_t tail = -1;  // least recent
    uint64_t size = 0;
    uint64_t capacity = 0;
  };

  Links& link(size_t cache, int32_t node) {
    return links_[cache * node_capacity_ + static_cast<size_t>(node)];
  }
  void list_push_front(size_t cache, int32_t n);
  void list_unlink(size_t cache, int32_t n);
  void list_move_front(size_t cache, int32_t n);

  bool present(int32_t n, size_t cache) const {
    return (nodes_[static_cast<size_t>(n)].mask >> cache) & 1;
  }

  int32_t alloc_node(RegionId region, uint64_t chunk);
  void free_node(int32_t n);  // clears the region's chunk_node entry
  void evict_tail(size_t cache);

  CacheConfig config_;
  MemStats stats_;
  RegionId next_region_ = 1;
  std::vector<Region> regions_;  // index 0 unused

  int num_cores_ = 1;

  size_t node_capacity_ = 0;  // fixed pool size (max residency + margin)
  uint64_t l1_bits_ = 0;      // presence bits of the L1 cache indices
  std::vector<DirNode> nodes_;
  std::vector<Links> links_;  // cores + 1 stripes of node_capacity_
  std::vector<LruList> lists_;
  std::vector<int32_t> free_nodes_;
};

}  // namespace sim
