// Cost accounting for the hand-written sequential application versions.
//
// The paper's Fig. 8 compares XSPCL applications against hand-written
// sequential programs that do not use the Hinch runtime. To make the
// comparison apples-to-apples, the sequential versions run on the same
// single-core memory-hierarchy model and charge the same per-kernel
// compute costs — the only differences are exactly the ones the paper
// attributes the overhead to: kernel fusion (no intermediate stream
// buffers) and the absence of runtime scheduling work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cache.hpp"

namespace apps {

// Recorded op stream of one sequential run (the SeqMachine analogue of
// hinch::ChargeTrace): every region registration, compute charge, and
// memory access in order. Replaying the trace against a fresh cache
// model reproduces the recorded cycles and memory statistics exactly —
// without re-executing the application's kernels — so parameter sweeps
// pay only the simulator cost, and a full run's host time minus its
// replay's is the kernels' own.
struct SeqTrace {
  enum Kind : uint8_t { kRegion, kCharge, kRead, kWrite };
  struct Op {
    uint64_t a = 0;  // kRegion: bytes; kCharge: cycles; else: offset
    uint64_t b = 0;  // kRead/kWrite: len
    sim::RegionId region = 0;
    Kind kind = kCharge;
  };
  std::vector<Op> ops;
};

// Cycle/memory result of replaying a SeqTrace (no checksum — the
// kernels do not run).
struct SeqReplay {
  uint64_t cycles = 0;
  sim::MemStats mem;
};

SeqReplay replay_seq_trace(const SeqTrace& trace,
                           const sim::CacheConfig& cache);

class SeqMachine {
 public:
  // `record` (optional) captures the op stream for replay_seq_trace; it
  // must outlive the machine.
  explicit SeqMachine(const sim::CacheConfig& cache = {},
                      SeqTrace* record = nullptr);

  // Register a buffer (frame, bitstream, coefficient store).
  sim::RegionId region(uint64_t bytes, const std::string& label);

  void charge(uint64_t cycles) {
    cycles_ += cycles;
    if (record_ != nullptr)
      record_->ops.push_back({cycles, 0, 0, SeqTrace::kCharge});
  }
  void read(sim::RegionId r, uint64_t offset, uint64_t len);
  void write(sim::RegionId r, uint64_t offset, uint64_t len);

  uint64_t cycles() const { return cycles_; }
  const sim::MemStats& mem_stats() const { return mem_.stats(); }

 private:
  sim::MemorySystem mem_;
  uint64_t cycles_ = 0;
  SeqTrace* record_ = nullptr;
};

}  // namespace apps
