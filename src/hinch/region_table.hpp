// Lazily-registered memory regions for stream slots and component
// scratch space, used by the simulator backend. A (stream, slot) pair
// keeps one region across slot reuse, modelling the frame-pool
// behaviour of the runtime.
//
// Region keys pack (stream index, ring slot) into one 64-bit value with
// the stream index in the upper 32 bits. An earlier version shifted by
// only 8 bits, so any stream deeper than 256 slots aliased its high
// slots onto the next stream's regions — the simulator then accounted
// two different buffers as one, silently skewing cache statistics.
// Depths, stream counts and stream indices are bounds-checked so a
// regression aborts instead of aliasing.
//
// Keys are per table: each table registers its own regions, so two
// tables over one sim::MemorySystem never share a region for the same
// (stream, slot).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "sim/cache.hpp"
#include "support/check.hpp"

namespace hinch {

class RegionTable {
 public:
  RegionTable(sim::MemorySystem* mem, int depth) : mem_(mem), depth_(depth) {
    SUP_CHECK(depth >= 1);
  }

  sim::RegionId stream_region(int64_t stream_index, int64_t iter,
                              uint64_t min_bytes) {
    // The label factory only runs on a table miss (first touch or a
    // size upgrade), so the per-access hot path stays allocation-free.
    return lookup(stream_regions_, stream_key(stream_index, iter), min_bytes,
                  [&] {
                    return "stream:" + std::to_string(stream_index) + ":slot" +
                           std::to_string(iter % depth_);
                  });
  }

  sim::RegionId scratch_region(int task, uint64_t min_bytes) {
    SUP_CHECK(task >= 0);
    return lookup(scratch_regions_, static_cast<uint64_t>(task), min_bytes,
                  [&] {
                    return "scratch:task" + std::to_string(task);
                  });
  }

  // Exposed for tests: the packed key must be injective over
  // (stream_index, iter % depth). Both halves are range-checked — the
  // slot against its 32-bit field, and the stream index against 2^32
  // (an index at or above it would shift into oblivion and alias
  // stream index mod 2^32). The index parameter is deliberately 64-bit
  // so the guard is a real check, not vacuous on a 32-bit int.
  uint64_t stream_key(int64_t stream_index, int64_t iter) const {
    SUP_CHECK_MSG(stream_index >= 0, "negative stream index");
    SUP_CHECK_MSG(static_cast<uint64_t>(stream_index) < (1ULL << 32),
                  "stream index exceeds the key's 32-bit field");
    SUP_CHECK_MSG(iter >= 0, "negative iteration");
    uint64_t slot = static_cast<uint64_t>(iter % depth_);
    SUP_CHECK_MSG(slot < (1ULL << 32), "stream depth exceeds 2^32 slots");
    return (static_cast<uint64_t>(stream_index) << 32) | slot;
  }

 private:
  struct Entry {
    sim::RegionId id;
    uint64_t bytes;
  };

  template <typename LabelFn>
  sim::RegionId lookup(std::unordered_map<uint64_t, Entry>& table,
                       uint64_t key, uint64_t min_bytes, LabelFn&& label) {
    auto it = table.find(key);
    if (it != table.end()) {
      if (it->second.bytes >= min_bytes) return it->second.id;
      mem_->release_region(it->second.id);
      table.erase(it);
    }
    sim::RegionId id = mem_->register_region(min_bytes, label());
    table.emplace(key, Entry{id, min_bytes});
    return id;
  }

  sim::MemorySystem* mem_;
  int depth_;
  std::unordered_map<uint64_t, Entry> stream_regions_;
  std::unordered_map<uint64_t, Entry> scratch_regions_;
};

}  // namespace hinch
