// Sink components: consume the final frames, accumulate checksums, and
// optionally retain output for correctness comparisons in tests.
#include <vector>

#include "components/detail.hpp"
#include "components/sinks.hpp"
#include "hinch/component.hpp"
#include "media/kernels.hpp"
#include "media/metrics.hpp"

namespace components {

uint64_t SinkState::checksum() const {
  std::lock_guard<std::mutex> lock(mutex);
  return hash;
}

int SinkState::frames() const {
  std::lock_guard<std::mutex> lock(mutex);
  return count;
}

media::FramePtr SinkState::frame(int i) const {
  std::lock_guard<std::mutex> lock(mutex);
  SUP_CHECK(i >= 0 && i < static_cast<int>(stored.size()));
  return stored[static_cast<size_t>(i)];
}

void SinkState::record(const media::Frame& f, bool store) {
  std::lock_guard<std::mutex> lock(mutex);
  // Iterations complete in order and a sink is sequential with itself, so
  // the running hash is well-defined under both executors.
  hash = media::frame_hash(f, hash);
  ++count;
  if (store) stored.push_back(f.clone());
}

namespace {

// Consumes one full frame per iteration.
class FrameSink : public hinch::Component, public SinkAccess {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::ComponentConfig& config) {
    bool store = hinch::param_int_or(config.params, "store", 0) != 0;
    return std::unique_ptr<hinch::Component>(new FrameSink(store));
  }

  explicit FrameSink(bool store) : in_(declare_input("in")), store_(store) {}

  void run(hinch::ExecContext& ctx) override {
    media::FramePtr f = ctx.read(in_).frame();
    state_.record(*f, store_);
    ctx.touch_read(in_, 0, f->bytes());
    // DMA the composed frame out (display / file).
    ctx.charge_compute(media::io_cycles(f->bytes()));
  }

  void reset() override { state_.clear(); }
  const SinkState& sink() const override { return state_; }

 private:
  int in_;
  bool store_;
  SinkState state_;
};

// Consumes three gray planes (Y, U, V) per iteration and reassembles a
// frame — the "Output" node of the per-plane task graphs (Fig. 7).
class YuvSink : public hinch::Component, public SinkAccess {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::ComponentConfig& config) {
    bool store = hinch::param_int_or(config.params, "store", 0) != 0;
    return std::unique_ptr<hinch::Component>(new YuvSink(store));
  }

  explicit YuvSink(bool store)
      : y_(declare_input("y")),
        u_(declare_input("u")),
        v_(declare_input("v")),
        store_(store) {}

  void run(hinch::ExecContext& ctx) override {
    media::FramePtr py = ctx.read(y_).frame();
    media::FramePtr pu = ctx.read(u_).frame();
    media::FramePtr pv = ctx.read(v_).frame();
    // Infer the subsampling from the plane sizes.
    bool is420 = pu->width() == (py->width() + 1) / 2;
    media::FramePtr frame = media::make_frame(
        is420 ? media::PixelFormat::kYuv420 : media::PixelFormat::kYuv444,
        py->width(), py->height());
    const media::FramePtr in[3] = {py, pu, pv};
    for (int p = 0; p < 3; ++p) {
      media::copy_plane(in[p]->plane(0), frame->plane(p), 0,
                        frame->plane(p).height);
      ctx.touch_read(p, 0, in[p]->bytes());
    }
    state_.record(*frame, store_);
    ctx.charge_compute(media::io_cycles(frame->bytes()));
  }

  void reset() override { state_.clear(); }
  const SinkState& sink() const override { return state_; }

 private:
  int y_;
  int u_;
  int v_;
  bool store_;
  SinkState state_;
};

}  // namespace

void register_sinks(hinch::ComponentRegistry& registry) {
  registry.register_class("frame_sink", &FrameSink::create);
  registry.register_class("yuv_sink", &YuvSink::create);
}

}  // namespace components
