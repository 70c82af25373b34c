// The component model (§3.1): components implement the application's
// basic functionality, communicate through streams bound to named i/o
// ports, send/receive events, and expose a reconfiguration interface.
//
// Components are written against ExecContext, which abstracts over the
// two executors (SpaceCAKE-sim virtual time / native threads): stream
// i/o, event sending, and simulated-cost charging (a no-op under the
// thread executor).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "hinch/event.hpp"
#include "hinch/stream.hpp"
#include "support/status.hpp"

namespace obs {
class MetricsRegistry;
}

namespace hinch {

class ExecContext;

class Component {
 public:
  virtual ~Component() = default;

  // Execute one iteration: read input ports, write output ports. Runs to
  // completion; must not block (§3.1).
  virtual void run(ExecContext& ctx) = 0;

  // Reconfiguration interface (§3.1): components may adjust parameters in
  // response to a request string. Default: ignore.
  virtual void reconfigure(std::string_view request) { (void)request; }

  // Reset per-run state (frame counters etc.) so a Program can be
  // executed repeatedly. Called by the scheduler before each run.
  virtual void reset() {}

  // --- identity / slicing (set by the runtime) ---
  const std::string& instance() const { return instance_; }
  void set_instance(std::string name) { instance_ = std::move(name); }

  // Data-parallel position (§3.3): this copy handles slice
  // `slice_index` of `slice_count`. Delivered through the
  // reconfiguration interface as the paper describes.
  int slice_index() const { return slice_index_; }
  int slice_count() const { return slice_count_; }
  void assign_slice(int index, int count);

  // --- ports ---
  // Streams bound to the class's ports, in the order its ClassInfo
  // declares them (§2 item 3a: "each component has a fixed number of i/o
  // ports"); components address their ports by that index.
  int input_count() const { return static_cast<int>(inputs_.size()); }
  int output_count() const { return static_cast<int>(outputs_.size()); }
  Stream* input_stream(int i) const { return inputs_[static_cast<size_t>(i)]; }
  Stream* output_stream(int i) const { return outputs_[static_cast<size_t>(i)]; }
  void bind_ports(std::vector<Stream*> inputs, std::vector<Stream*> outputs) {
    inputs_ = std::move(inputs);
    outputs_ = std::move(outputs);
  }

 private:
  std::string instance_;
  int slice_index_ = 0;
  int slice_count_ = 1;
  std::vector<Stream*> inputs_;
  std::vector<Stream*> outputs_;
};

// Helper: the [row0, row1) band of `rows` total rows that slice
// (index, count) is responsible for. Distributes remainders evenly.
void slice_rows(int rows, int index, int count, int* row0, int* row1);

// Execution context handed to Component::run.
class ExecContext {
 public:
  ExecContext(Component* comp, int64_t iteration, int core,
              EventQueueRegistry* queues,
              obs::MetricsRegistry* metrics = nullptr)
      : comp_(comp),
        iteration_(iteration),
        core_(core),
        queues_(queues),
        metrics_(metrics) {}

  int64_t iteration() const { return iteration_; }
  int core() const { return core_; }
  Component& component() { return *comp_; }

  // Live metrics registry of the run, when the executor was handed one
  // (SimParams::metrics / run_on_threads); nullptr otherwise. Components
  // that adapt on runtime state (the policy component) poll it through
  // MetricsRegistry::snapshot() — reads never block the run.
  obs::MetricsRegistry* metrics() const { return metrics_; }

  // Switch the context to the next component of a grouped task; stream
  // i/o resolves against the new component's ports, charges keep
  // accumulating into the same job.
  void rebind(Component* comp) { comp_ = comp; }

  // --- stream i/o ---
  const Packet& read(int in_port) const;
  void write(int out_port, Packet packet);
  // In-place access to the output stream's slot (read-modify-write
  // chains, e.g. blending into a shared canvas). The slot must already
  // have been written this iteration.
  Packet& inout(int out_port);
  // Two-phase in-place production: acquire() returns the slot without
  // publishing it (readers still fault until commit() marks it written).
  Packet& acquire(int out_port);
  void commit(int out_port);
  // True when the input stream already carries this iteration's data
  // (used with in-place chains).
  bool input_ready(int in_port) const;

  // --- events ---
  void send_event(const std::string& queue, Event ev);

  // --- simulated cost charging (no-ops under the thread executor) ---
  struct Touch {
    int stream_index;
    uint64_t offset;
    uint64_t len;
    bool write;
  };
  // One linear pass over the component's private scratch region. The
  // region is sized to the largest pass; several passes model a
  // produce-then-consume intermediate that never leaves the task (the
  // fused decode chain writes coefficients, then reads them back).
  struct ScratchTouch {
    uint64_t bytes;
    bool write;
  };
  struct Charges {
    uint64_t compute_cycles = 0;
    std::vector<ScratchTouch> scratch;
    std::vector<Touch> touches;
  };

  void charge_compute(uint64_t cycles) { charges_.compute_cycles += cycles; }
  // Memory traffic on the packet currently in the port's slot.
  void touch_read(int in_port, uint64_t offset, uint64_t len);
  void touch_write(int out_port, uint64_t offset, uint64_t len);
  // Private working memory of the component (decode state etc.). Each
  // call is one write pass over [0, bytes) of the task's scratch region;
  // touch_scratch_read models reading an intermediate back.
  void touch_scratch(uint64_t bytes) {
    charges_.scratch.push_back({bytes, /*write=*/true});
  }
  void touch_scratch_read(uint64_t bytes) {
    charges_.scratch.push_back({bytes, /*write=*/false});
  }

  const Charges& charges() const { return charges_; }

 private:
  Component* comp_;
  int64_t iteration_;
  int core_;
  EventQueueRegistry* queues_;
  obs::MetricsRegistry* metrics_;
  Charges charges_;
};

}  // namespace hinch
