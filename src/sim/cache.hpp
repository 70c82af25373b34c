// Memory-hierarchy model of the SpaceCAKE platform (§4 of the paper:
// each TriMedia core has a private L1, an L2 is shared per tile).
//
// Granularity is a "chunk" (default 1 KiB) rather than a cache line: the
// workloads stream whole image rows, so chunk-level LRU reproduces the
// relevant behaviour — the paper's finding that splitting fused kernels
// into stream-connected components increases misses (§4.1) — at a small
// fraction of the bookkeeping cost.
//
// Charging policy per touched chunk (core on tile T):
//   in own L1            -> 0 extra cycles (L1 hit cost is folded into
//                           the kernels' compute-cycle constants)
//   in tile T's L2       -> l2_cycles_per_chunk
//   in another tile's L2 -> l2_cycles_per_chunk
//                           + hops * hop_cycles_per_chunk (interconnect
//                           transfer; the chunk is installed in tile T's
//                           L2 and the core's L1, the remote copy and
//                           its recency are left untouched); nearest
//                           tile first, lowest index breaking ties
//   in no cache          -> mem_cycles_per_chunk
// Writes invalidate other cores' L1 copies and other tiles' L2 copies
// (MSI-style coherence). A single-tile platform never takes the remote
// path, so its statistics and cycle charges are identical to the
// pre-multi-tile model.
//
// Two interchangeable cache-structure engines implement the identical
// LRU/coherence semantics (every access classifies and evicts the same
// way, so all simulated-cycle outputs are byte-identical):
//
//   LruImpl::kFlat (default) — a shared chunk *directory*: one pooled
//   node per resident chunk (index-linked, no per-touch allocation)
//   found through one open-addressing hash probe; per-cache intrusive
//   LRU lists thread through per-cache prev/next arrays indexed by the
//   node id; a per-chunk presence bitmask (one bit per L1 plus one per
//   tile L2) makes a write invalidation mask reads plus targeted erases
//   (instead of probing every core's map); and a per-region
//   resident-chunk list makes release_region O(chunks actually cached),
//   not O(region chunks x caches). The mask scales with the platform:
//   an inline 64-bit word covers up to 64 caches (63 cores + one L2, or
//   e.g. 60 cores across 4 tiles); wider platforms switch to pooled
//   multi-word mask spans, so the 64–256-core regime simulates on the
//   fast engine (an earlier version aborted at cores >= 64).
//
//   LruImpl::kListReference — the original std::list +
//   std::unordered_map structures, retained as the equivalence baseline
//   for tests and the "before" leg of bench_sim (the same pattern as
//   media's HuffmanImpl::kBitSerial).
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"
#include "sim/platform.hpp"

namespace sim {

using RegionId = uint32_t;

enum class LruImpl {
  kFlat,           // pooled nodes + open-addressing directory (fast path)
  kListReference,  // std::list + unordered_map (equivalence baseline)
};

// Cache geometry and latencies. The machine's shape — cores, which
// tile each core sits on, per-tile L2 capacities and the interconnect —
// comes from the sim::PlatformConfig handed to MemorySystem alongside.
struct CacheConfig {
  uint64_t l1_bytes = 16 * 1024;  // per core (TriMedia-like)
  // SpaceCAKE tiles carry a large shared embedded-DRAM L2. 16 MiB holds
  // every sequential application's working set and the pipelined PiP
  // ones, but not the 5-deep pipelined JPiP working set (5 slots of
  // 2.7 MiB coefficient images plus the decoded planes) — the regime
  // behind the paper's Fig. 8, where JPiP alone pays heavily. A tile
  // whose TileSpec::l2_bytes is 0 gets this capacity.
  uint64_t l2_bytes = 16 * 1024 * 1024;
  uint32_t chunk_bytes = 1024;
  Cycles l2_cycles_per_chunk = 192;   // ~12 cycles per 64 B line
  Cycles mem_cycles_per_chunk = 640;  // ~40 cycles per 64 B line
  LruImpl lru_impl = LruImpl::kFlat;
};

struct MemStats {
  uint64_t accesses = 0;   // chunk touches
  uint64_t l1_hits = 0;
  uint64_t l2_hits = 0;    // includes remote_hits
  uint64_t mem_fetches = 0;
  uint64_t invalidations = 0;  // L1 copies invalidated by writes
  Cycles stall_cycles = 0;
  // Multi-tile sub-counters (always 0 on a single-tile platform).
  uint64_t remote_hits = 0;        // L2 hits served by another tile
  uint64_t l2_invalidations = 0;   // remote-tile L2 copies invalidated

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
  uint64_t remote_hits = 0;
  uint64_t l2_invalidations = 0;
};

// Upper bound on the cache model's directory for one platform. The flat
// engine allocates its directory up front, and its LRU links alone take
// (cores + tiles) x (summed L2 chunks + L1 chunks) entries, so a platform
// with many tiles or a huge L2 would exhaust memory before the first
// access. 1 GiB admits every platform of at most kMaxCores cores on one
// tile with the default L2; the largest committed ones
// (specs/platform_256.xml, bench_platform's 256-core tile) need ~45 MB.
inline constexpr uint64_t kMaxDirectoryBytes = uint64_t{1} << 30;

class MemorySystem {
 public:
  // `platform` must be non-empty (PlatformConfig::homogeneous(1, n) is
  // the single-tile machine of n cores); it is check()ed here, and its
  // directory_bytes must not exceed kMaxDirectoryBytes.
  MemorySystem(const CacheConfig& config, const PlatformConfig& platform);

  // Bytes the flat engine's directory takes for `platform` under
  // `config`, saturating at UINT64_MAX. The XML platform loader reports
  // the kMaxDirectoryBytes bound with a position.
  static uint64_t directory_bytes(const CacheConfig& config,
                                  const PlatformConfig& platform);

  // Register a buffer the simulated application will touch. `label` is
  // kept for the per-region statistics dump.
  RegionId register_region(uint64_t bytes, std::string label);
  void release_region(RegionId id);

  // Charge the stall cycles for core `core` touching bytes
  // [offset, offset+len) of `region`. `write` additionally invalidates
  // other cores' L1 copies (and other tiles' L2 copies). Returns the
  // stall cycles (also accumulated in stats()).
  Cycles access(int core, RegionId region, uint64_t offset, uint64_t len,
                bool write);

  const MemStats& stats() const { return stats_; }
  void reset_stats() { stats_ = MemStats{}; }

  int tiles() const { return num_tiles_; }

  // Per-region access/miss/stall breakdown in registration order,
  // including released regions (their counters stop but are kept).
  std::vector<RegionStats> region_stats() const;

 private:
  // Chunk identity: region id in the upper bits, chunk index below.
  using ChunkKey = uint64_t;
  static ChunkKey key(RegionId region, uint64_t chunk) {
    return (static_cast<uint64_t>(region) << 32) | chunk;
  }

  // Region bookkeeping + accumulated statistics, indexed by RegionId
  // (ids are dense: 1, 2, ...). Shared by both engines.
  struct Region {
    uint64_t bytes = 0;
    bool active = false;
    int32_t chunk_head = -1;  // flat engine: list of resident chunks
    std::string label;
    RegionStats stats;  // id/label/bytes mirrored into the dump lazily
  };

  // ---- list-reference engine --------------------------------------------
  struct Lru {
    uint64_t capacity_chunks = 0;
    std::list<ChunkKey> order;  // front = most recent
    std::unordered_map<ChunkKey, std::list<ChunkKey>::iterator> index;

    bool contains(ChunkKey k) const { return index.count(k) != 0; }
    void touch(ChunkKey k);   // insert or move to front; evicts beyond capacity
    void erase(ChunkKey k);
  };

  Cycles access_list(int core, Region& region_info, RegionId region,
                     uint64_t first, uint64_t last, bool write);
  void release_region_list(RegionId id, Region& region_info);

  // ---- flat engine -------------------------------------------------------
  //
  // Directory node: one per chunk resident in at least one cache.
  // Cache index space: [0, cores) are the per-core L1s, [cores,
  // cores + tiles) are the per-tile L2s. The presence mask has bit i
  // set when cache i holds the chunk; it is the inline `mask` word
  // while every cache index fits 64 bits, and a pooled span of
  // `mask_words_` words in mask_pool_ on wider platforms. LRU
  // prev/next links live in per-cache stripes of links_ (stride =
  // node-pool capacity), so membership and recency updates are index
  // arithmetic on flat arrays.
  struct DirNode {
    ChunkKey chunk_key = 0;
    uint64_t mask = 0;  // presence bits when mask_words_ == 1
    RegionId region = 0;
    int32_t region_prev = -1;
    int32_t region_next = -1;
  };
  struct HashSlot {
    ChunkKey chunk_key = 0;
    int32_t node = -1;  // -1 = empty
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

  static uint64_t mix(ChunkKey k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
  }

  Links& link(size_t cache, int32_t node) {
    return links_[cache * node_capacity_ + static_cast<size_t>(node)];
  }
  void list_push_front(size_t cache, int32_t n);
  void list_unlink(size_t cache, int32_t n);
  void list_move_front(size_t cache, int32_t n);

  // Presence-mask span of node `n` (kWide: pooled multi-word span;
  // !kWide: the inline DirNode word).
  template <bool kWide>
  uint64_t* mask_span(int32_t n) {
    if constexpr (kWide)
      return &mask_pool_[static_cast<size_t>(n) * mask_words_];
    else
      return &nodes_[static_cast<size_t>(n)].mask;
  }
  template <bool kWide>
  bool mask_test(int32_t n, size_t bit) {
    if constexpr (kWide)
      return (mask_span<kWide>(n)[bit >> 6] >> (bit & 63)) & 1;
    else
      return (nodes_[static_cast<size_t>(n)].mask >> bit) & 1;
  }
  template <bool kWide>
  void mask_set(int32_t n, size_t bit) {
    mask_span<kWide>(n)[kWide ? bit >> 6 : 0] |= uint64_t{1}
                                                 << (kWide ? (bit & 63) : bit);
  }
  template <bool kWide>
  void mask_clear(int32_t n, size_t bit);
  template <bool kWide>
  bool mask_empty(int32_t n);
  void mask_zero(int32_t n);

  // Returns the hash slot holding `k`, or the slot to insert it at.
  size_t hash_find(ChunkKey k) const;
  void hash_erase_slot(size_t slot);  // backward-shift deletion

  int32_t alloc_node(ChunkKey k, size_t slot, RegionId region);
  void free_node(int32_t n);  // unlinks from hash + region list
  template <bool kWide>
  void evict_tail(size_t cache);

  template <bool kWide>
  Cycles access_flat(int core, Region& region_info, RegionId region,
                     uint64_t first, uint64_t last, bool write);
  void release_region_flat(RegionId id, Region& region_info);

  CacheConfig config_;
  bool flat_ = true;
  MemStats stats_;
  RegionId next_region_ = 1;
  std::vector<Region> regions_;  // index 0 unused

  // Platform shape (resolved in the constructor).
  int num_cores_ = 1;
  int num_tiles_ = 1;
  std::vector<int> tile_of_core_;  // size cores
  // Remote-L2 search order per tile: other tiles sorted by (hops, index).
  std::vector<std::vector<int>> remote_order_;
  std::vector<int> hops_;  // tile x tile hop counts (row-major)
  Cycles hop_cycles_per_chunk_ = 0;  // interconnect cost per chunk per hop

  // list-reference engine state
  std::vector<Lru> l1_;  // one per core
  std::vector<Lru> l2_;  // one per tile

  // flat engine state
  size_t num_caches_ = 0;     // cores + tiles; cache cores+t is tile t's L2
  size_t mask_words_ = 1;     // presence-mask width in 64-bit words
  size_t node_capacity_ = 0;  // fixed pool size (max residency + margin)
  std::vector<DirNode> nodes_;
  std::vector<uint64_t> mask_pool_;  // mask spans when mask_words_ > 1
  std::vector<uint64_t> l1_bits_;    // per word: bits of L1 cache indices
  std::vector<Links> links_;  // num_caches_ stripes of node_capacity_
  std::vector<LruList> lists_;
  std::vector<int32_t> free_nodes_;
  std::vector<HashSlot> hash_;  // power-of-two open addressing, linear probe
  size_t hash_mask_ = 0;
};

}  // namespace sim
