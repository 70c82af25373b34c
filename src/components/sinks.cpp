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
      const hinch::Params& params) {
    return std::unique_ptr<hinch::Component>(
        new FrameSink(params.get_int("store") != 0));
  }

  explicit FrameSink(bool store) : store_(store) {}

  void run(hinch::ExecContext& ctx) override {
    media::FramePtr f = ctx.read(kIn).frame();
    uint64_t digests[3] = {};
    for (int p = 0; p < f->planes(); ++p)
      digests[p] = media::plane_digest(f->plane(p));
    state_.record({digests, static_cast<size_t>(f->planes())},
                  store_ ? f->clone() : nullptr);
    ctx.touch_read(kIn, 0, f->bytes());
    // DMA the composed frame out (display / file).
    ctx.charge_compute(media::io_cycles(f->bytes()));
  }

  void reset() override { state_.clear(); }
  const SinkState& sink() const override { return state_; }

 private:
  bool store_;
  SinkState state_;
};

// Consumes three gray planes (Y, U, V) per iteration — the "Output" node
// of the per-plane task graphs (Fig. 7). It digests each plane where it
// lies; only store=1 assembles them into a frame.
class YuvSink : public hinch::Component, public SinkAccess {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::Params& params) {
    return std::unique_ptr<hinch::Component>(
        new YuvSink(params.get_int("store") != 0));
  }

  explicit YuvSink(bool store) : store_(store) {}

  void run(hinch::ExecContext& ctx) override {
    const media::FramePtr in[3] = {ctx.read(0).frame(), ctx.read(1).frame(),
                                   ctx.read(2).frame()};
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

  bool store_;
  SinkState state_;
};

}  // namespace

void register_sinks(hinch::ComponentRegistry& registry) {
  const hinch::ParamSpec store = hinch::int_param("store", 0, 1, 0);
  registry.register_class({"frame_sink", &FrameSink::create, {"in"}, {},
                           {store}});
  registry.register_class({"yuv_sink", &YuvSink::create, {"y", "u", "v"}, {},
                           {store}});
}

}  // namespace components
