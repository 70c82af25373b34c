// Sink components: consume the final frames, fold their plane digests into
// a checksum, and optionally retain output for correctness comparisons.
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

void SinkState::record(std::span<const uint64_t> plane_digests,
                       media::FramePtr keep) {
  std::lock_guard<std::mutex> lock(mutex);
  // Iterations complete in order and a sink is sequential with itself, so
  // the running hash is well-defined under both executors.
  for (uint64_t d : plane_digests) hash = media::hash_fold(hash, d);
  ++count;
  if (keep) stored.push_back(std::move(keep));
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
    uint64_t digests[3] = {};
    for (int p = 0; p < f->planes(); ++p)
      digests[p] = media::plane_digest(f->plane(p));
    state_.record({digests, static_cast<size_t>(f->planes())},
                  store_ ? f->clone() : nullptr);
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

// Consumes three gray planes (Y, U, V) per iteration — the "Output" node
// of the per-plane task graphs (Fig. 7). It digests each plane where it
// lies; only store=1 assembles them into a frame.
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
    const media::FramePtr in[3] = {ctx.read(y_).frame(), ctx.read(u_).frame(),
                                   ctx.read(v_).frame()};
    uint64_t digests[3] = {};
    size_t bytes = 0;
    for (int p = 0; p < 3; ++p) {
      digests[p] = media::plane_digest(in[p]->plane(0));
      ctx.touch_read(p, 0, in[p]->bytes());
      bytes += in[p]->bytes();
    }
    state_.record(digests, store_ ? assemble(in) : nullptr);
    ctx.charge_compute(media::io_cycles(bytes));
  }

  void reset() override { state_.clear(); }
  const SinkState& sink() const override { return state_; }

 private:
  // The frame the three planes make; the subsampling follows from their
  // sizes.
  static media::FramePtr assemble(const media::FramePtr (&in)[3]) {
    bool is420 = in[1]->width() == (in[0]->width() + 1) / 2;
    media::FramePtr frame = media::make_frame(
        is420 ? media::PixelFormat::kYuv420 : media::PixelFormat::kYuv444,
        in[0]->width(), in[0]->height());
    for (int p = 0; p < 3; ++p)
      media::copy_plane(in[p]->plane(0), frame->plane(p), 0,
                        frame->plane(p).height);
    return frame;
  }

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
