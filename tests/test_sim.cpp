#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "sim/cache.hpp"
#include "support/rng.hpp"

namespace {

using sim::CacheConfig;
using sim::Cycles;
using sim::MemorySystem;

CacheConfig small_cache() {
  CacheConfig c;
  c.l1_bytes = 4 * 1024;   // 4 chunks
  c.l2_bytes = 16 * 1024;  // 16 chunks
  c.chunk_bytes = 1024;
  c.l2_cycles_per_chunk = 100;
  c.mem_cycles_per_chunk = 1000;
  return c;
}

TEST(Cache, ColdMissThenL1Hit) {
  MemorySystem mem(small_cache(), 1);
  sim::RegionId r = mem.register_region(2048, "buf");
  EXPECT_EQ(mem.access(0, r, 0, 2048, false), 2000u);  // 2 chunks from mem
  EXPECT_EQ(mem.access(0, r, 0, 2048, false), 0u);     // both in L1 now
  EXPECT_EQ(mem.stats().mem_fetches, 2u);
  EXPECT_EQ(mem.stats().l1_hits, 2u);
}

TEST(Cache, L1EvictionFallsBackToL2) {
  MemorySystem mem(small_cache(), 1);
  sim::RegionId r = mem.register_region(8 * 1024, "buf");
  mem.access(0, r, 0, 8 * 1024, false);  // 8 chunks; L1 keeps last 4
  // First chunk was evicted from L1 but lives in L2.
  EXPECT_EQ(mem.access(0, r, 0, 1024, false), 100u);
  EXPECT_EQ(mem.stats().l2_hits, 1u);
}

TEST(Cache, L2EvictionGoesToMemory) {
  MemorySystem mem(small_cache(), 1);
  sim::RegionId r = mem.register_region(32 * 1024, "buf");
  mem.access(0, r, 0, 32 * 1024, false);  // 32 chunks > L2's 16
  EXPECT_EQ(mem.access(0, r, 0, 1024, false), 1000u);  // evicted everywhere
}

TEST(Cache, PerCoreL1IsPrivate) {
  MemorySystem mem(small_cache(), 2);
  sim::RegionId r = mem.register_region(1024, "buf");
  EXPECT_EQ(mem.access(0, r, 0, 1024, false), 1000u);  // core 0: cold
  EXPECT_EQ(mem.access(1, r, 0, 1024, false), 100u);   // core 1: from L2
  EXPECT_EQ(mem.access(0, r, 0, 1024, false), 0u);     // both hold it
  EXPECT_EQ(mem.access(1, r, 0, 1024, false), 0u);
}

TEST(Cache, WritesInvalidateOtherCores) {
  MemorySystem mem(small_cache(), 2);
  sim::RegionId r = mem.register_region(1024, "buf");
  mem.access(0, r, 0, 1024, false);
  mem.access(1, r, 0, 1024, false);
  // Core 0 writes: core 1's copy must be invalidated.
  mem.access(0, r, 0, 1024, true);
  EXPECT_EQ(mem.stats().invalidations, 1u);
  EXPECT_EQ(mem.access(1, r, 0, 1024, false), 100u);  // L2, not L1
}

TEST(Cache, ReleasedRegionIsForgotten) {
  MemorySystem mem(small_cache(), 1);
  sim::RegionId r = mem.register_region(1024, "buf");
  mem.access(0, r, 0, 1024, false);
  mem.release_region(r);
  sim::RegionId r2 = mem.register_region(1024, "buf2");
  EXPECT_EQ(mem.access(0, r2, 0, 1024, false), 1000u);
}

TEST(Cache, PartialChunkChargesWholeChunk) {
  MemorySystem mem(small_cache(), 1);
  sim::RegionId r = mem.register_region(4096, "buf");
  EXPECT_EQ(mem.access(0, r, 100, 8, false), 1000u);   // one chunk
  EXPECT_EQ(mem.access(0, r, 1000, 48, false), 1000u); // spans chunk 0-1;
  // chunk 0 already resident, chunk 1 cold.
  EXPECT_EQ(mem.stats().l1_hits, 1u);
}

TEST(Cache, ZeroLengthIsFree) {
  MemorySystem mem(small_cache(), 1);
  sim::RegionId r = mem.register_region(1024, "buf");
  EXPECT_EQ(mem.access(0, r, 0, 0, true), 0u);
  EXPECT_EQ(mem.stats().accesses, 0u);
}

TEST(Cache, StatsRates) {
  MemorySystem mem(small_cache(), 1);
  sim::RegionId r = mem.register_region(1024, "buf");
  mem.access(0, r, 0, 1024, false);
  mem.access(0, r, 0, 1024, false);
  EXPECT_DOUBLE_EQ(mem.stats().l1_hit_rate(), 0.5);
  mem.reset_stats();
  EXPECT_EQ(mem.stats().accesses, 0u);
}

// Streaming through a large buffer with a small cache: every pass costs
// the same (no accidental retention), the classic LRU streaming pattern.
class StreamingPassTest : public ::testing::TestWithParam<int> {};

TEST_P(StreamingPassTest, RepeatedPassesKeepMissing) {
  MemorySystem mem(small_cache(), 1);
  uint64_t bytes = static_cast<uint64_t>(GetParam()) * 1024;
  sim::RegionId r = mem.register_region(bytes, "big");
  Cycles first = mem.access(0, r, 0, bytes, false);
  Cycles second = mem.access(0, r, 0, bytes, false);
  if (bytes > 16 * 1024) {
    EXPECT_EQ(first, second);  // fully streaming: nothing retained
  } else {
    EXPECT_LE(second, first);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, StreamingPassTest,
                         ::testing::Values(2, 8, 16, 32, 64));

// --- reference-model equivalence -------------------------------------------------
//
// A deliberately naive reference implementation of the same cache
// semantics (per-core L1 LRU, shared L2 LRU, write invalidation, region
// release), exercised against MemorySystem with seeded random access
// sequences: every access must cost the same stall cycles, and the run
// must end with the same statistics. It is the cache model's only
// oracle.
namespace refmodel {

// (region, chunk) packed into one key.
uint64_t key(sim::RegionId region, uint64_t chunk) {
  return (static_cast<uint64_t>(region) << 32) | chunk;
}

struct Lru {
  size_t capacity;
  std::vector<uint64_t> order;  // front = most recent

  bool contains(uint64_t k) const {
    return std::find(order.begin(), order.end(), k) != order.end();
  }
  void touch(uint64_t k) {
    erase(k);
    order.insert(order.begin(), k);
    while (order.size() > capacity) order.pop_back();
  }
  bool erase(uint64_t k) {
    auto it = std::find(order.begin(), order.end(), k);
    if (it == order.end()) return false;
    order.erase(it);
    return true;
  }
};

struct Model {
  CacheConfig cfg;
  std::vector<Lru> l1;
  Lru l2;
  sim::MemStats stats;

  Model(const CacheConfig& c, int cores) : cfg(c) {
    l1.assign(static_cast<size_t>(cores),
              Lru{c.l1_bytes / c.chunk_bytes, {}});
    l2 = Lru{c.l2_bytes / c.chunk_bytes, {}};
  }

  // Touches every chunk of bytes [offset, offset+len) of `region`;
  // returns the stall cycles.
  Cycles access(int core, sim::RegionId region, uint64_t offset,
                uint64_t len, bool write) {
    Lru& mine = l1[static_cast<size_t>(core)];
    Cycles stall = 0;
    for (uint64_t c = offset / cfg.chunk_bytes;
         c <= (offset + len - 1) / cfg.chunk_bytes; ++c) {
      const uint64_t k = key(region, c);
      ++stats.accesses;
      if (mine.contains(k)) {
        ++stats.l1_hits;
      } else {
        if (l2.contains(k)) {
          ++stats.l2_hits;
          stall += cfg.l2_cycles_per_chunk;
        } else {
          ++stats.mem_fetches;
          stall += cfg.mem_cycles_per_chunk;
        }
        // An L1 hit never reaches the L2, so only misses refresh its
        // recency.
        l2.touch(k);
      }
      mine.touch(k);
      if (write) {
        for (size_t i = 0; i < l1.size(); ++i)
          if (static_cast<int>(i) != core && l1[i].erase(k))
            ++stats.invalidations;
      }
    }
    stats.stall_cycles += stall;
    return stall;
  }

  // Drops every chunk of `region` from every cache.
  void release(sim::RegionId region, uint64_t bytes) {
    for (uint64_t c = 0; c * cfg.chunk_bytes < bytes; ++c) {
      for (Lru& l : l1) l.erase(key(region, c));
      l2.erase(key(region, c));
    }
  }
};

}  // namespace refmodel

// (cores, seed).
class CacheEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(CacheEquivalenceTest, MatchesNaiveReferenceModel) {
  const auto [cores, seed] = GetParam();
  const CacheConfig cfg = small_cache();
  const uint64_t cb = cfg.chunk_bytes;
  MemorySystem mem(cfg, cores);
  refmodel::Model ref(cfg, cores);
  support::SplitMix64 rng(seed);

  // Three live regions of different sizes, none a whole number of
  // chunks; together they overflow the 16-chunk L2.
  struct Live {
    sim::RegionId id;
    uint64_t bytes;
  };
  std::vector<Live> live;
  auto fresh = [&] {
    const uint64_t bytes = (3 + rng.next_below(12)) * cb + 1 +
                           rng.next_below(cb - 1);
    return Live{mem.register_region(bytes, "buf"), bytes};
  };
  for (int i = 0; i < 3; ++i) live.push_back(fresh());

  for (int step = 0; step < 3000; ++step) {
    // Now and then a buffer dies and a fresh one takes its place.
    if (rng.next_below(64) == 0) {
      Live& dead = live[rng.next_below(live.size())];
      mem.release_region(dead.id);
      ref.release(dead.id, dead.bytes);
      dead = fresh();
    }
    const Live& r = live[rng.next_below(live.size())];
    const uint64_t chunks = (r.bytes + cb - 1) / cb;
    // Bytes [start, end] span 1-3 chunks and may start or end mid-chunk.
    const uint64_t first = rng.next_below(chunks);
    const uint64_t last =
        std::min(first + rng.next_below(3), chunks - 1);
    const uint64_t start = first * cb + rng.next_below(
                                            std::min(cb, r.bytes - first * cb));
    const uint64_t lo = std::max(start, last * cb);
    const uint64_t end = lo + rng.next_below(std::min((last + 1) * cb,
                                                      r.bytes) - lo);
    const int core = static_cast<int>(rng.next_below(
        static_cast<uint64_t>(cores)));
    const bool write = rng.next_below(3) == 0;
    const uint64_t len = end - start + 1;
    ASSERT_EQ(mem.access(core, r.id, start, len, write),
              ref.access(core, r.id, start, len, write))
        << "cores=" << cores << " seed=" << seed << " step=" << step
        << " core=" << core << " region=" << r.id << " bytes [" << start
        << ", " << end << "] write=" << write;
  }
  const sim::MemStats& got = mem.stats();
  EXPECT_EQ(got.accesses, ref.stats.accesses);
  EXPECT_EQ(got.l1_hits, ref.stats.l1_hits);
  EXPECT_EQ(got.l2_hits, ref.stats.l2_hits);
  EXPECT_EQ(got.mem_fetches, ref.stats.mem_fetches);
  EXPECT_EQ(got.invalidations, ref.stats.invalidations);
  EXPECT_EQ(got.stall_cycles, ref.stats.stall_cycles);
}

// sim::kMaxCores fills the whole presence word (every L1 bit plus the
// L2's); the wide_mask_engine_equivalence ctest leg runs those cases.
INSTANTIATE_TEST_SUITE_P(
    CoresSeeds, CacheEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 3, 8, sim::kMaxCores),
                       ::testing::Range<uint64_t>(100, 112)),
    [](const ::testing::TestParamInfo<CacheEquivalenceTest::ParamType>& info) {
      return "cores" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
