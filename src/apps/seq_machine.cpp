#include "apps/seq_machine.hpp"

#include "support/check.hpp"

namespace apps {

SeqMachine::SeqMachine(const sim::CacheConfig& cache, SeqTrace* record)
    : mem_(cache, sim::PlatformConfig::homogeneous(1, 1)), record_(record) {}

sim::RegionId SeqMachine::region(uint64_t bytes, const std::string& label) {
  sim::RegionId r = mem_.register_region(bytes, label);
  if (record_ != nullptr)
    record_->ops.push_back({bytes, 0, r, SeqTrace::kRegion});
  return r;
}

void SeqMachine::read(sim::RegionId r, uint64_t offset, uint64_t len) {
  cycles_ += mem_.access(0, r, offset, len, /*write=*/false);
  if (record_ != nullptr)
    record_->ops.push_back({offset, len, r, SeqTrace::kRead});
}

void SeqMachine::write(sim::RegionId r, uint64_t offset, uint64_t len) {
  cycles_ += mem_.access(0, r, offset, len, /*write=*/true);
  if (record_ != nullptr)
    record_->ops.push_back({offset, len, r, SeqTrace::kWrite});
}

SeqReplay replay_seq_trace(const SeqTrace& trace,
                           const sim::CacheConfig& cache) {
  sim::MemorySystem mem(cache, sim::PlatformConfig::homogeneous(1, 1));
  SeqReplay out;
  for (const SeqTrace::Op& op : trace.ops) {
    switch (op.kind) {
      case SeqTrace::kRegion: {
        sim::RegionId r = mem.register_region(op.a, "replay");
        SUP_CHECK_MSG(r == op.region,
                      "seq trace replay: region ids diverged");
        break;
      }
      case SeqTrace::kCharge:
        out.cycles += op.a;
        break;
      case SeqTrace::kRead:
        out.cycles += mem.access(0, op.region, op.a, op.b, /*write=*/false);
        break;
      case SeqTrace::kWrite:
        out.cycles += mem.access(0, op.region, op.a, op.b, /*write=*/true);
        break;
    }
  }
  out.mem = mem.stats();
  return out;
}

}  // namespace apps
