#include "sim/cache.hpp"

#include <algorithm>
#include <bit>

#include "support/check.hpp"

namespace sim {

// ---- list-reference engine --------------------------------------------------

void MemorySystem::Lru::touch(ChunkKey k) {
  auto it = index.find(k);
  if (it != index.end()) {
    order.splice(order.begin(), order, it->second);
    return;
  }
  order.push_front(k);
  index[k] = order.begin();
  while (order.size() > capacity_chunks) {
    index.erase(order.back());
    order.pop_back();
  }
}

void MemorySystem::Lru::erase(ChunkKey k) {
  auto it = index.find(k);
  if (it == index.end()) return;
  order.erase(it->second);
  index.erase(it);
}

Cycles MemorySystem::access_list(int core, Region& region_info,
                                 RegionId region, uint64_t first,
                                 uint64_t last, bool write) {
  RegionStats& rs = region_info.stats;
  Lru& mine = l1_[static_cast<size_t>(core)];
  const int my_tile = tile_of_core_[static_cast<size_t>(core)];
  Lru& home = l2_[static_cast<size_t>(my_tile)];
  Cycles stall = 0;
  for (uint64_t c = first; c <= last; ++c) {
    ChunkKey k = key(region, c);
    ++stats_.accesses;
    ++rs.accesses;
    if (mine.contains(k)) {
      ++stats_.l1_hits;
      ++rs.l1_hits;
      mine.touch(k);
    } else if (home.contains(k)) {
      ++stats_.l2_hits;
      ++rs.l2_hits;
      stall += config_.l2_cycles_per_chunk;
      home.touch(k);
      mine.touch(k);
    } else {
      // Not local: probe the other tiles' L2s nearest-first. A remote
      // hit transfers the chunk over the interconnect into the home L2
      // (the remote copy and its recency stay untouched).
      int src = -1;
      for (int t : remote_order_[static_cast<size_t>(my_tile)]) {
        if (l2_[static_cast<size_t>(t)].contains(k)) {
          src = t;
          break;
        }
      }
      if (src >= 0) {
        ++stats_.l2_hits;
        ++rs.l2_hits;
        ++stats_.remote_hits;
        ++rs.remote_hits;
        stall += config_.l2_cycles_per_chunk +
                 static_cast<Cycles>(
                     hops_[static_cast<size_t>(my_tile) *
                               static_cast<size_t>(num_tiles_) +
                           static_cast<size_t>(src)]) *
                     hop_cycles_per_chunk_;
      } else {
        ++stats_.mem_fetches;
        ++rs.mem_fetches;
        stall += config_.mem_cycles_per_chunk;
      }
      home.touch(k);
      mine.touch(k);
    }
    if (write) {
      for (size_t i = 0; i < l1_.size(); ++i) {
        if (static_cast<int>(i) == core) continue;
        if (l1_[i].contains(k)) {
          l1_[i].erase(k);
          ++stats_.invalidations;
          ++rs.invalidations;
        }
      }
      if (num_tiles_ > 1) {
        for (int t = 0; t < num_tiles_; ++t) {
          if (t == my_tile) continue;
          if (l2_[static_cast<size_t>(t)].contains(k)) {
            l2_[static_cast<size_t>(t)].erase(k);
            ++stats_.l2_invalidations;
            ++rs.l2_invalidations;
          }
        }
      }
    }
  }
  return stall;
}

void MemorySystem::release_region_list(RegionId id, Region& region_info) {
  uint64_t chunks =
      (region_info.bytes + config_.chunk_bytes - 1) / config_.chunk_bytes;
  for (uint64_t c = 0; c < chunks; ++c) {
    ChunkKey k = key(id, c);
    for (Lru& l : l1_) l.erase(k);
    for (Lru& l : l2_) l.erase(k);
  }
}

// ---- flat engine ------------------------------------------------------------

void MemorySystem::list_push_front(size_t cache, int32_t n) {
  LruList& l = lists_[cache];
  Links& ln = link(cache, n);
  ln.prev = -1;
  ln.next = l.head;
  if (l.head >= 0) link(cache, l.head).prev = n;
  l.head = n;
  if (l.tail < 0) l.tail = n;
  ++l.size;
}

void MemorySystem::list_unlink(size_t cache, int32_t n) {
  LruList& l = lists_[cache];
  Links& ln = link(cache, n);
  if (ln.prev >= 0)
    link(cache, ln.prev).next = ln.next;
  else
    l.head = ln.next;
  if (ln.next >= 0)
    link(cache, ln.next).prev = ln.prev;
  else
    l.tail = ln.prev;
  --l.size;
}

void MemorySystem::list_move_front(size_t cache, int32_t n) {
  if (lists_[cache].head == n) return;
  list_unlink(cache, n);
  list_push_front(cache, n);
}

template <bool kWide>
void MemorySystem::mask_clear(int32_t n, size_t bit) {
  if constexpr (kWide)
    mask_span<kWide>(n)[bit >> 6] &= ~(uint64_t{1} << (bit & 63));
  else
    nodes_[static_cast<size_t>(n)].mask &= ~(uint64_t{1} << bit);
}

template <bool kWide>
bool MemorySystem::mask_empty(int32_t n) {
  if constexpr (kWide) {
    const uint64_t* m = mask_span<kWide>(n);
    for (size_t w = 0; w < mask_words_; ++w)
      if (m[w] != 0) return false;
    return true;
  } else {
    return nodes_[static_cast<size_t>(n)].mask == 0;
  }
}

void MemorySystem::mask_zero(int32_t n) {
  nodes_[static_cast<size_t>(n)].mask = 0;
  if (mask_words_ > 1) {
    uint64_t* m = &mask_pool_[static_cast<size_t>(n) * mask_words_];
    std::fill(m, m + mask_words_, uint64_t{0});
  }
}

size_t MemorySystem::hash_find(ChunkKey k) const {
  size_t i = mix(k) & hash_mask_;
  while (true) {
    const HashSlot& s = hash_[i];
    if (s.node < 0 || s.chunk_key == k) return i;
    i = (i + 1) & hash_mask_;
  }
}

void MemorySystem::hash_erase_slot(size_t slot) {
  // Backward-shift deletion for linear probing: pull later entries of
  // the same probe chain into the hole so lookups never need tombstones.
  size_t hole = slot;
  size_t j = slot;
  while (true) {
    j = (j + 1) & hash_mask_;
    if (hash_[j].node < 0) break;
    size_t home = mix(hash_[j].chunk_key) & hash_mask_;
    if (((j - home) & hash_mask_) >= ((j - hole) & hash_mask_)) {
      hash_[hole] = hash_[j];
      hole = j;
    }
  }
  hash_[hole].node = -1;
}

int32_t MemorySystem::alloc_node(ChunkKey k, size_t slot, RegionId region) {
  SUP_CHECK_MSG(!free_nodes_.empty(), "chunk directory pool exhausted");
  int32_t n = free_nodes_.back();
  free_nodes_.pop_back();
  DirNode& nd = nodes_[static_cast<size_t>(n)];
  nd.chunk_key = k;
  nd.region = region;
  mask_zero(n);
  Region& r = regions_[region];
  nd.region_prev = -1;
  nd.region_next = r.chunk_head;
  if (r.chunk_head >= 0)
    nodes_[static_cast<size_t>(r.chunk_head)].region_prev = n;
  r.chunk_head = n;
  hash_[slot] = HashSlot{k, n};
  return n;
}

void MemorySystem::free_node(int32_t n) {
  DirNode& nd = nodes_[static_cast<size_t>(n)];
  size_t slot = hash_find(nd.chunk_key);
  SUP_DCHECK(hash_[slot].node == n);
  hash_erase_slot(slot);
  if (nd.region_prev >= 0)
    nodes_[static_cast<size_t>(nd.region_prev)].region_next = nd.region_next;
  else
    regions_[nd.region].chunk_head = nd.region_next;
  if (nd.region_next >= 0)
    nodes_[static_cast<size_t>(nd.region_next)].region_prev = nd.region_prev;
  free_nodes_.push_back(n);
}

template <bool kWide>
void MemorySystem::evict_tail(size_t cache) {
  int32_t t = lists_[cache].tail;
  SUP_DCHECK(t >= 0);
  list_unlink(cache, t);
  mask_clear<kWide>(t, cache);
  if (mask_empty<kWide>(t)) free_node(t);
}

template <bool kWide>
Cycles MemorySystem::access_flat(int core, Region& region_info,
                                 RegionId region, uint64_t first,
                                 uint64_t last, bool write) {
  RegionStats& rs = region_info.stats;
  const size_t ncores = static_cast<size_t>(num_cores_);
  const size_t my = static_cast<size_t>(core);
  const int my_tile = tile_of_core_[my];
  const size_t home = ncores + static_cast<size_t>(my_tile);
  // All L1 presence bits except this core's (write-invalidation
  // targets); only meaningful on the narrow path.
  const uint64_t other_l1_bits =
      kWide ? 0 : l1_bits_[0] & ~(uint64_t{1} << my);
  Cycles stall = 0;
  for (uint64_t c = first; c <= last; ++c) {
    ChunkKey k = key(region, c);
    ++stats_.accesses;
    ++rs.accesses;
    size_t slot = hash_find(k);
    int32_t n = hash_[slot].node;
    if (n >= 0 && mask_test<kWide>(n, my)) {
      ++stats_.l1_hits;
      ++rs.l1_hits;
      list_move_front(my, n);
    } else {
      if (n >= 0 && mask_test<kWide>(n, home)) {
        ++stats_.l2_hits;
        ++rs.l2_hits;
        stall += config_.l2_cycles_per_chunk;
        list_move_front(home, n);
      } else {
        // Not in the home tile's L2: probe remote tiles nearest-first
        // before falling back to memory (same policy as the list
        // engine; remote recency is left untouched).
        int src = -1;
        if (n >= 0 && num_tiles_ > 1) {
          for (int t : remote_order_[static_cast<size_t>(my_tile)]) {
            if (mask_test<kWide>(n, ncores + static_cast<size_t>(t))) {
              src = t;
              break;
            }
          }
        }
        if (src >= 0) {
          ++stats_.l2_hits;
          ++rs.l2_hits;
          ++stats_.remote_hits;
          ++rs.remote_hits;
          stall += config_.l2_cycles_per_chunk +
                   static_cast<Cycles>(
                       hops_[static_cast<size_t>(my_tile) *
                                 static_cast<size_t>(num_tiles_) +
                             static_cast<size_t>(src)]) *
                       hop_cycles_per_chunk_;
        } else {
          ++stats_.mem_fetches;
          ++rs.mem_fetches;
          stall += config_.mem_cycles_per_chunk;
          if (n < 0) n = alloc_node(k, slot, region);
        }
        mask_set<kWide>(n, home);
        list_push_front(home, n);
        if (lists_[home].size > lists_[home].capacity) evict_tail<kWide>(home);
      }
      mask_set<kWide>(n, my);
      list_push_front(my, n);
      if (lists_[my].size > lists_[my].capacity) evict_tail<kWide>(my);
    }
    if (write) {
      if constexpr (kWide) {
        uint64_t* m = mask_span<kWide>(n);
        uint64_t count = 0;
        for (size_t w = 0; w < mask_words_; ++w) {
          uint64_t others = m[w] & l1_bits_[w];
          if (w == (my >> 6)) others &= ~(uint64_t{1} << (my & 63));
          if (!others) continue;
          count += static_cast<uint64_t>(std::popcount(others));
          m[w] &= ~others;
          do {
            size_t i = static_cast<size_t>(std::countr_zero(others));
            others &= others - 1;
            list_unlink(w * 64 + i, n);
          } while (others);
        }
        stats_.invalidations += count;
        rs.invalidations += count;
      } else {
        DirNode& nd = nodes_[static_cast<size_t>(n)];
        uint64_t others = nd.mask & other_l1_bits;
        if (others) {
          uint64_t count = static_cast<uint64_t>(std::popcount(others));
          stats_.invalidations += count;
          rs.invalidations += count;
          nd.mask &= ~others;
          do {
            size_t i = static_cast<size_t>(std::countr_zero(others));
            others &= others - 1;
            list_unlink(i, n);
          } while (others);
        }
      }
      if (num_tiles_ > 1) {
        for (int t = 0; t < num_tiles_; ++t) {
          if (t == my_tile) continue;
          size_t bit = ncores + static_cast<size_t>(t);
          if (mask_test<kWide>(n, bit)) {
            mask_clear<kWide>(n, bit);
            list_unlink(bit, n);
            ++stats_.l2_invalidations;
            ++rs.l2_invalidations;
          }
        }
      }
    }
  }
  return stall;
}

void MemorySystem::release_region_flat(RegionId /*id*/, Region& region_info) {
  int32_t n = region_info.chunk_head;
  while (n >= 0) {
    int32_t next = nodes_[static_cast<size_t>(n)].region_next;
    if (mask_words_ == 1) {
      uint64_t mask = nodes_[static_cast<size_t>(n)].mask;
      while (mask) {
        size_t i = static_cast<size_t>(std::countr_zero(mask));
        mask &= mask - 1;
        list_unlink(i, n);
      }
      nodes_[static_cast<size_t>(n)].mask = 0;
    } else {
      uint64_t* m = &mask_pool_[static_cast<size_t>(n) * mask_words_];
      for (size_t w = 0; w < mask_words_; ++w) {
        uint64_t mask = m[w];
        while (mask) {
          size_t i = static_cast<size_t>(std::countr_zero(mask));
          mask &= mask - 1;
          list_unlink(w * 64 + i, n);
        }
        m[w] = 0;
      }
      nodes_[static_cast<size_t>(n)].mask = 0;
    }
    free_node(n);  // also pops it off the region chunk list
    n = next;
  }
  SUP_DCHECK(region_info.chunk_head == -1);
}

// ---- shared surface ---------------------------------------------------------

namespace {

uint64_t sat_add(uint64_t a, uint64_t b) {
  uint64_t r;
  return __builtin_add_overflow(a, b, &r) ? UINT64_MAX : r;
}

uint64_t sat_mul(uint64_t a, uint64_t b) {
  uint64_t r;
  return __builtin_mul_overflow(a, b, &r) ? UINT64_MAX : r;
}

}  // namespace

uint64_t MemorySystem::directory_bytes(const CacheConfig& config,
                                       const PlatformConfig& platform) {
  SUP_CHECK(config.chunk_bytes > 0);
  // Same node capacity as the constructor: summed capacities + 2.
  uint64_t nodes = 2;
  for (const TileSpec& t : platform.tiles) {
    const uint64_t l2 = t.l2_bytes != 0 ? t.l2_bytes : config.l2_bytes;
    nodes = sat_add(nodes, l2 / config.chunk_bytes);
    nodes = sat_add(nodes, sat_mul(static_cast<uint64_t>(t.cores),
                                   config.l1_bytes / config.chunk_bytes));
  }
  const uint64_t caches = static_cast<uint64_t>(platform.total_cores()) +
                          static_cast<uint64_t>(platform.tile_count());
  const uint64_t mask_words = (caches + 63) / 64;
  uint64_t per_node = caches * sizeof(Links) + sizeof(DirNode) +
                      sizeof(int32_t);  // free-list entry
  if (mask_words > 1) per_node += mask_words * sizeof(uint64_t);
  // The hash table rounds 2 slots per node up to a power of two: at most
  // 4 slots per node.
  const uint64_t hash = sat_mul(sat_mul(nodes, 4), sizeof(HashSlot));
  return sat_add(sat_mul(nodes, per_node), hash);
}

MemorySystem::MemorySystem(const CacheConfig& config,
                           const PlatformConfig& platform)
    : config_(config) {
  platform.check();
  SUP_CHECK_MSG(directory_bytes(config, platform) <= kMaxDirectoryBytes,
                "platform exceeds the cache model's kMaxDirectoryBytes");
  num_cores_ = platform.total_cores();
  num_tiles_ = platform.tile_count();
  tile_of_core_ = platform.tile_map();
  hop_cycles_per_chunk_ = platform.hop_cycles_per_chunk;
  SUP_CHECK(config.chunk_bytes > 0);
  const size_t ncores = static_cast<size_t>(num_cores_);
  const uint64_t l1_cap = config_.l1_bytes / config_.chunk_bytes;
  SUP_CHECK(l1_cap >= 1);

  // Per-tile L2 capacities (a 0 entry falls back to l2_bytes).
  std::vector<uint64_t> tile_l2_cap(static_cast<size_t>(num_tiles_));
  uint64_t total_l2_cap = 0;
  for (int t = 0; t < num_tiles_; ++t) {
    uint64_t bytes = platform.tiles[static_cast<size_t>(t)].l2_bytes;
    if (bytes == 0) bytes = config_.l2_bytes;
    tile_l2_cap[static_cast<size_t>(t)] = bytes / config_.chunk_bytes;
    SUP_CHECK_MSG(tile_l2_cap[static_cast<size_t>(t)] >= 1,
                  "tile L2 smaller than one chunk");
    total_l2_cap += tile_l2_cap[static_cast<size_t>(t)];
  }

  // Inter-tile hop matrix + nearest-first remote search order.
  hops_.assign(static_cast<size_t>(num_tiles_) *
                   static_cast<size_t>(num_tiles_),
               0);
  for (int a = 0; a < num_tiles_; ++a)
    for (int b = 0; b < num_tiles_; ++b)
      hops_[static_cast<size_t>(a) * static_cast<size_t>(num_tiles_) +
            static_cast<size_t>(b)] = platform.hops(a, b);
  remote_order_.resize(static_cast<size_t>(num_tiles_));
  for (int a = 0; a < num_tiles_; ++a) {
    std::vector<int>& order = remote_order_[static_cast<size_t>(a)];
    for (int b = 0; b < num_tiles_; ++b)
      if (b != a) order.push_back(b);
    std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
      return hops_[static_cast<size_t>(a) * static_cast<size_t>(num_tiles_) +
                   static_cast<size_t>(x)] <
             hops_[static_cast<size_t>(a) * static_cast<size_t>(num_tiles_) +
                   static_cast<size_t>(y)];
    });
  }

  regions_.resize(1);  // RegionId 0 stays unused
  flat_ = config_.lru_impl == LruImpl::kFlat;
  if (flat_) {
    num_caches_ = ncores + static_cast<size_t>(num_tiles_);
    mask_words_ = (num_caches_ + 63) / 64;
    // Every resident chunk occupies at least one cache, so peak directory
    // occupancy is bounded by the summed capacities (+1 transient node
    // while an insertion precedes its eviction).
    node_capacity_ =
        static_cast<size_t>(total_l2_cap + ncores * l1_cap + 2);
    nodes_.resize(node_capacity_);
    if (mask_words_ > 1)
      mask_pool_.assign(node_capacity_ * mask_words_, 0);
    l1_bits_.assign(mask_words_, 0);
    for (size_t c = 0; c < ncores; ++c)
      l1_bits_[c >> 6] |= uint64_t{1} << (c & 63);
    links_.assign(num_caches_ * node_capacity_, Links{});
    lists_.assign(num_caches_, LruList{});
    for (size_t i = 0; i < ncores; ++i) lists_[i].capacity = l1_cap;
    for (int t = 0; t < num_tiles_; ++t)
      lists_[ncores + static_cast<size_t>(t)].capacity =
          tile_l2_cap[static_cast<size_t>(t)];
    free_nodes_.reserve(node_capacity_);
    for (size_t n = node_capacity_; n > 0; --n)
      free_nodes_.push_back(static_cast<int32_t>(n - 1));
    size_t hash_size = 1;
    while (hash_size < 2 * node_capacity_) hash_size <<= 1;
    hash_.assign(hash_size, HashSlot{});
    hash_mask_ = hash_size - 1;
  } else {
    l1_.resize(ncores);
    for (Lru& l : l1_) l.capacity_chunks = l1_cap;
    l2_.resize(static_cast<size_t>(num_tiles_));
    for (int t = 0; t < num_tiles_; ++t)
      l2_[static_cast<size_t>(t)].capacity_chunks =
          tile_l2_cap[static_cast<size_t>(t)];
  }
}

RegionId MemorySystem::register_region(uint64_t bytes, std::string label) {
  RegionId id = next_region_++;
  SUP_DCHECK(regions_.size() == id);
  Region region;
  region.bytes = bytes;
  region.active = true;
  region.label = std::move(label);
  regions_.push_back(std::move(region));
  return id;
}

void MemorySystem::release_region(RegionId id) {
  if (id >= regions_.size() || !regions_[id].active) return;
  Region& region = regions_[id];
  if (flat_)
    release_region_flat(id, region);
  else
    release_region_list(id, region);
  region.active = false;
}

Cycles MemorySystem::access(int core, RegionId region, uint64_t offset,
                            uint64_t len, bool write) {
  SUP_DCHECK(core >= 0 && core < num_cores_);
  if (len == 0) return 0;
  SUP_CHECK_MSG(region < regions_.size() && regions_[region].active,
                "access to unregistered region");
  Region& info = regions_[region];
  // Overflow-safe bounds check: `offset + len` can wrap for hostile
  // offsets, so compare against the region size without adding.
  SUP_DCHECK(len <= info.bytes && offset <= info.bytes - len);

  const uint64_t first = offset / config_.chunk_bytes;
  const uint64_t last = (offset + len - 1) / config_.chunk_bytes;
  Cycles stall;
  if (flat_) {
    stall = mask_words_ == 1
                ? access_flat<false>(core, info, region, first, last, write)
                : access_flat<true>(core, info, region, first, last, write);
  } else {
    stall = access_list(core, info, region, first, last, write);
  }
  stats_.stall_cycles += stall;
  info.stats.stall_cycles += stall;
  return stall;
}

std::vector<RegionStats> MemorySystem::region_stats() const {
  std::vector<RegionStats> out;
  out.reserve(regions_.size() - 1);
  for (size_t i = 1; i < regions_.size(); ++i) {
    RegionStats s = regions_[i].stats;
    s.id = static_cast<RegionId>(i);
    s.label = regions_[i].label;
    s.bytes = regions_[i].bytes;
    s.active = regions_[i].active;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace sim
