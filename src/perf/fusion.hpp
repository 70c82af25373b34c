// The cost-model side of the fuse-kernels pass (§4.1): decides, per
// fusion candidate, whether rewriting a stream-connected chain into one
// fused-loop task beats leaving it pipelined/sliced.
//
// The decision sees the simulated cache hierarchy (sim::CacheConfig):
// the elided link traffic is priced at the level the parked packets
// live at, against the fused loop's register pressure and the
// serialization loss from giving up the chain's parallelism. Link
// footprints come from a short profiling run (measure_stream_slot_bytes)
// of the *unfused* program.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "hinch/registry.hpp"
#include "sim/cache.hpp"
#include "sp/fuse_kernels.hpp"
#include "support/status.hpp"

namespace perf {

// What the fusion decision knows about the machine and the run.
struct FusionModel {
  sim::CacheConfig cache;  // the simulated hierarchy (§4.1's L2 regime)
  int cores = 1;           // parallelism fusion would actually forfeit
  int window = 5;          // stream depth: packets in flight per link
};

// Per-stream high-water packet bytes, keyed by elaborated stream name.
using StreamBytes = std::map<std::string, uint64_t>;

// Builds the (unfused) program and simulates `iterations` frames on one
// core, then reads every stream's high-water packet size. Streams never
// written during the profile (e.g. inside disabled options) report 0,
// which makes the advisor decline their fusions — conservative.
support::Result<StreamBytes> measure_stream_slot_bytes(
    const sp::Node& root, const hinch::ComponentRegistry& registry,
    int iterations = 2);

// The pure decision, exposed for tests: `link_bytes` is the summed
// packet size of the links a rewrite would internalize,
// `lost_parallelism` the slice replication the fused task gives up.
//
// The fuse-kernels pass elides the link's packets entirely: the fused
// loop keeps the intermediate in a strip-sized scratch, so BOTH the
// producer's store pass and the consumer's load pass over the link
// bytes disappear — priced at the cache level the parked packets
// currently live at (L2 while the window's worth fits the budget,
// memory once it overflows). Against that saving the model charges the
// fused loop's register pressure (a per-chunk constant — wider fused
// loops keep more live state, throttling the issue rate) and the
// serialization loss when the rewrite forfeits slice replication on a
// multi-core run.
bool kernel_fusion_wins(const FusionModel& model, uint64_t link_bytes,
                        int lost_parallelism);

// Advisor for PassOptions::kernel_advisor over an already-measured byte
// map (cheap to copy per sweep point; the map is shared by value).
sp::FusionAdvisor make_kernel_fusion_advisor(StreamBytes bytes,
                                             FusionModel model);

}  // namespace perf
