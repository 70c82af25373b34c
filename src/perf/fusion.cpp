#include "perf/fusion.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "hinch/runtime.hpp"

namespace perf {
namespace {

// Share of the L2 the parked link packets may occupy before the model
// calls the link thrashing. Half leaves room for the working set the
// components themselves touch.
constexpr double kLinkL2Share = 0.5;

// Compute cycles per byte moved across a link, pricing the serialization
// loss of a fused chain. This is the scalar tier's rate on the simulated
// core: fusion decisions are part of the simulated program, so they never
// depend on the kernel tier of the host that compiles it.
constexpr double kChainCyclesPerByte = 4.0;

// Issue-rate penalty of a fused loop, per cache chunk of link data: the
// fused body keeps both stages' live values in registers at once, which
// costs spills/restores the separate loops do not pay. Small next to
// the L2-vs-memory delta (448 cycles/chunk on the default config), so
// it only tips marginal candidates.
constexpr double kFusedRegPressureCyclesPerChunk = 8.0;

}  // namespace

support::Result<StreamBytes> measure_stream_slot_bytes(
    const sp::Node& root, const hinch::ComponentRegistry& registry,
    int iterations) {
  // Build with the default pipeline but no fusion (we are sizing the
  // links fusion would remove).
  hinch::BuildConfig config;
  SUP_ASSIGN_OR_RETURN(std::unique_ptr<hinch::Program> prog,
                       hinch::Program::build(root, registry, config));
  hinch::RunConfig run;
  run.iterations = iterations;
  run.window = 1;  // packet sizes don't depend on pipelining
  hinch::SimParams sim;
  sim.cores = 1;
  sim.sync_costs = false;
  hinch::run_on_sim(*prog, run, sim);
  StreamBytes bytes;
  for (const std::unique_ptr<hinch::Stream>& s : prog->streams())
    bytes[s->name()] = s->max_packet_bytes();
  return bytes;
}

bool kernel_fusion_wins(const FusionModel& model, uint64_t link_bytes,
                        int lost_parallelism) {
  if (link_bytes == 0) return false;
  const double chunks =
      std::ceil(static_cast<double>(link_bytes) /
                static_cast<double>(model.cache.chunk_bytes));
  // Where do the parked packets live? Within the L2 budget the elided
  // store+load would have been L2 traffic; overflowed, memory traffic.
  const double parked =
      static_cast<double>(model.window) * static_cast<double>(link_bytes);
  const bool thrashing =
      parked > kLinkL2Share * static_cast<double>(model.cache.l2_bytes);
  const double per_chunk = static_cast<double>(
      thrashing ? model.cache.mem_cycles_per_chunk
                : model.cache.l2_cycles_per_chunk);
  // One producer store pass + one consumer load pass, both elided.
  const double saving = 2.0 * chunks * per_chunk;
  const int par = std::max(1, std::min(model.cores, lost_parallelism));
  const double loss =
      kFusedRegPressureCyclesPerChunk * chunks +
      kChainCyclesPerByte * static_cast<double>(link_bytes) *
          (1.0 - 1.0 / static_cast<double>(par));
  return saving > loss;
}

sp::FusionAdvisor make_kernel_fusion_advisor(StreamBytes bytes,
                                             FusionModel model) {
  return [bytes = std::move(bytes),
          model](const sp::FusionCandidate& cand) {
    uint64_t link_bytes = 0;
    for (const std::string& s : cand.link_streams) {
      auto it = bytes.find(s);
      if (it != bytes.end()) link_bytes += it->second;
    }
    return kernel_fusion_wins(model, link_bytes, cand.lost_replicas);
  };
}

}  // namespace perf
