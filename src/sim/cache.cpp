#include "sim/cache.hpp"

#include <bit>

#include "support/check.hpp"

namespace sim {

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

int32_t MemorySystem::alloc_node(RegionId region, uint64_t chunk) {
  SUP_CHECK_MSG(!free_nodes_.empty(), "chunk directory pool exhausted");
  int32_t n = free_nodes_.back();
  free_nodes_.pop_back();
  nodes_[static_cast<size_t>(n)] =
      DirNode{0, region, static_cast<uint32_t>(chunk)};
  regions_[region].chunk_node[chunk] = n;
  return n;
}

void MemorySystem::free_node(int32_t n) {
  const DirNode& nd = nodes_[static_cast<size_t>(n)];
  regions_[nd.region].chunk_node[nd.chunk] = -1;
  free_nodes_.push_back(n);
}

void MemorySystem::evict_tail(size_t cache) {
  int32_t t = lists_[cache].tail;
  SUP_DCHECK(t >= 0);
  list_unlink(cache, t);
  DirNode& nd = nodes_[static_cast<size_t>(t)];
  nd.mask &= ~(uint64_t{1} << cache);
  if (nd.mask == 0) free_node(t);
}

MemorySystem::MemorySystem(const CacheConfig& config, int cores)
    : config_(config), num_cores_(cores) {
  SUP_CHECK_MSG(cores >= 1 && cores <= kMaxCores,
                "core count must be in [1, kMaxCores]");
  SUP_CHECK(config.chunk_bytes > 0);
  const size_t ncores = static_cast<size_t>(cores);
  const uint64_t l1_cap = config_.l1_bytes / config_.chunk_bytes;
  const uint64_t l2_cap = config_.l2_bytes / config_.chunk_bytes;
  SUP_CHECK(l1_cap >= 1);
  SUP_CHECK_MSG(l2_cap >= 1, "L2 smaller than one chunk");

  regions_.resize(1);  // RegionId 0 stays unused
  const size_t caches = ncores + 1;  // the L1s, then the L2
  // Every resident chunk occupies at least one cache, so peak directory
  // occupancy is bounded by the summed capacities (+1 transient node
  // while an insertion precedes its eviction).
  node_capacity_ = static_cast<size_t>(l2_cap + ncores * l1_cap + 2);
  nodes_.resize(node_capacity_);
  l1_bits_ = (uint64_t{1} << ncores) - 1;
  links_.assign(caches * node_capacity_, Links{});
  lists_.assign(caches, LruList{});
  for (size_t i = 0; i < ncores; ++i) lists_[i].capacity = l1_cap;
  lists_[ncores].capacity = l2_cap;
  free_nodes_.reserve(node_capacity_);
  for (size_t n = node_capacity_; n > 0; --n)
    free_nodes_.push_back(static_cast<int32_t>(n - 1));
}

RegionId MemorySystem::register_region(uint64_t bytes, std::string label) {
  RegionId id = next_region_++;
  SUP_DCHECK(regions_.size() == id);
  Region region;
  region.bytes = bytes;
  region.active = true;
  region.label = std::move(label);
  const uint64_t chunks =
      bytes / config_.chunk_bytes + (bytes % config_.chunk_bytes != 0);
  SUP_CHECK_MSG(chunks <= UINT32_MAX, "region exceeds 2^32 chunks");
  region.chunk_node.assign(static_cast<size_t>(chunks), -1);
  regions_.push_back(std::move(region));
  return id;
}

void MemorySystem::release_region(RegionId id) {
  if (id >= regions_.size() || !regions_[id].active) return;
  Region& region = regions_[id];
  for (int32_t n : region.chunk_node) {
    if (n < 0) continue;
    uint64_t mask = nodes_[static_cast<size_t>(n)].mask;
    while (mask) {
      size_t i = static_cast<size_t>(std::countr_zero(mask));
      mask &= mask - 1;
      list_unlink(i, n);
    }
    free_node(n);
  }
  std::vector<int32_t>().swap(region.chunk_node);
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
  // offsets, so compare against the region size without adding. Checked
  // in every build: the loop below indexes the region's chunk -> node
  // array with these chunks.
  SUP_CHECK_MSG(len <= info.bytes && offset <= info.bytes - len,
                "access outside its region");

  RegionStats& rs = info.stats;
  const uint64_t first = offset / config_.chunk_bytes;
  const uint64_t last = (offset + len - 1) / config_.chunk_bytes;
  const size_t my = static_cast<size_t>(core);
  const size_t l2 = static_cast<size_t>(num_cores_);
  // All L1 presence bits except this core's (write-invalidation
  // targets).
  const uint64_t other_l1_bits = l1_bits_ & ~(uint64_t{1} << my);
  Cycles stall = 0;
  for (uint64_t c = first; c <= last; ++c) {
    ++stats_.accesses;
    ++rs.accesses;
    int32_t n = info.chunk_node[c];
    if (n >= 0 && present(n, my)) {
      ++stats_.l1_hits;
      ++rs.l1_hits;
      list_move_front(my, n);
    } else {
      if (n >= 0 && present(n, l2)) {
        ++stats_.l2_hits;
        ++rs.l2_hits;
        stall += config_.l2_cycles_per_chunk;
        list_move_front(l2, n);
      } else {
        ++stats_.mem_fetches;
        ++rs.mem_fetches;
        stall += config_.mem_cycles_per_chunk;
        if (n < 0) n = alloc_node(region, c);
        nodes_[static_cast<size_t>(n)].mask |= uint64_t{1} << l2;
        list_push_front(l2, n);
        if (lists_[l2].size > lists_[l2].capacity) evict_tail(l2);
      }
      nodes_[static_cast<size_t>(n)].mask |= uint64_t{1} << my;
      list_push_front(my, n);
      if (lists_[my].size > lists_[my].capacity) evict_tail(my);
    }
    if (write) {
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
  }
  stats_.stall_cycles += stall;
  rs.stall_cycles += stall;
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
