// Event-producing components: the stand-in for asynchronous user
// interaction. The reconfigurable variants of §4.3 toggle options every
// 12 frames; an event_ticker drives exactly that.
#include "components/detail.hpp"
#include "hinch/component.hpp"
#include "media/kernels.hpp"
#include "support/strings.hpp"

namespace components {
namespace {

// Sends `event` to `queue` every `period` iterations (starting at
// iteration `period`). A `payload` param is forwarded verbatim.
class EventTicker : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::Params& params) {
    auto comp = std::unique_ptr<EventTicker>(new EventTicker());
    comp->event_ = params.get_string("event");
    comp->queue_ = params.get_string("queue");
    comp->period_ = params.get_int("period");
    comp->payload_ = params.get_string("payload");
    return support::Result<std::unique_ptr<hinch::Component>>(
        std::move(comp));
  }

  void run(hinch::ExecContext& ctx) override {
    // A key press is a handful of cycles of polling work.
    ctx.charge_compute(50);
    int64_t it = ctx.iteration();
    if (it > 0 && it % period_ == 0)
      ctx.send_event(queue_, hinch::Event{event_, payload_});
  }

 private:
  std::string event_;
  std::string queue_;
  std::string payload_;
  int64_t period_ = 0;
};

// Sends scripted events: param "script" is a ;-separated list of
// iteration:event[:payload] entries. Used by tests and the interactive
// example to model a user pressing specific keys at specific times.
class EventScript : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::Params& params) {
    auto comp = std::unique_ptr<EventScript>(new EventScript());
    comp->queue_ = params.get_string("queue");
    for (const std::string& entry :
         support::split(params.get_string("script"), ';')) {
      if (support::trim(entry).empty()) continue;
      auto parts = support::split(entry, ':');
      if (parts.size() < 2 || parts.size() > 3)
        return support::invalid_argument(
            "event_script: entries are iteration:event[:payload]");
      SUP_ASSIGN_OR_RETURN(int64_t iter, support::parse_int(parts[0]));
      comp->entries_.push_back(
          {iter, parts[1], parts.size() == 3 ? parts[2] : ""});
    }
    return support::Result<std::unique_ptr<hinch::Component>>(
        std::move(comp));
  }

  void run(hinch::ExecContext& ctx) override {
    ctx.charge_compute(50);
    for (const Entry& e : entries_) {
      if (e.iter == ctx.iteration())
        ctx.send_event(queue_, hinch::Event{e.event, e.payload});
    }
  }

 private:
  struct Entry {
    int64_t iter;
    std::string event;
    std::string payload;
  };
  std::string queue_;
  std::vector<Entry> entries_;
};

// Detects scene changes in its input video and reports them as events —
// the §2 non-interactive use of events: "In non-interactive
// applications, events can be used to respond to special input values."
// Passes the frame through unchanged. Params: queue, event,
// threshold (mean absolute luma difference x 100, default 800 = 8.0).
class SceneChange : public hinch::Component {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::Params& params) {
    auto comp = std::unique_ptr<SceneChange>(new SceneChange());
    comp->event_ = params.get_string("event");
    comp->queue_ = params.get_string("queue");
    comp->threshold_x100_ = params.get_int("threshold");
    return support::Result<std::unique_ptr<hinch::Component>>(
        std::move(comp));
  }

  void reset() override { prev_.reset(); }

  void run(hinch::ExecContext& ctx) override {
    media::FramePtr frame = ctx.read(kIn).frame();
    media::ConstPlaneView y = frame->plane(0);
    if (prev_) {
      uint64_t sad = 0;
      media::ConstPlaneView p = prev_->plane(0);
      for (int row = 0; row < y.height; ++row) {
        const uint8_t* a = y.row(row);
        const uint8_t* b = p.row(row);
        for (int col = 0; col < y.width; ++col)
          sad += static_cast<uint64_t>(a[col] > b[col] ? a[col] - b[col]
                                                       : b[col] - a[col]);
      }
      uint64_t mean_x100 = sad * 100 / y.bytes();
      if (mean_x100 >= static_cast<uint64_t>(threshold_x100_)) {
        ctx.send_event(queue_,
                       hinch::Event{event_, std::to_string(mean_x100)});
      }
      ctx.charge_compute(2 * y.bytes());  // SAD over both lumas
      ctx.touch_read(kIn, 0, y.bytes());
      ctx.touch_scratch(y.bytes());
    }
    // Keep a private copy of the luma for the next iteration.
    media::FramePtr keep =
        media::make_frame(media::PixelFormat::kGray, y.width, y.height);
    media::copy_plane(y, keep->plane(0), 0, y.height);
    prev_ = std::move(keep);
    ctx.write(kOut, hinch::Packet::of_frame(frame));
  }

 private:
  std::string event_;
  std::string queue_;
  int64_t threshold_x100_ = 800;
  media::FramePtr prev_;
};

}  // namespace

void register_events(hinch::ComponentRegistry& registry) {
  using hinch::int_param;
  using hinch::string_param;
  constexpr auto kRequired = hinch::ParamSpec::Presence::kRequired;
  registry.register_class(
      {"event_ticker", &EventTicker::create, {}, {},
       {string_param("event", kRequired), string_param("queue", kRequired),
        int_param("period", 1, INT64_MAX, kRequired),
        string_param("payload", "")}});
  registry.register_class(
      {"event_script", &EventScript::create, {}, {},
       {string_param("queue", kRequired), string_param("script", kRequired)}});
  registry.register_class(
      {"scene_change", &SceneChange::create, {"in"}, {"out"},
       {string_param("event", kRequired), string_param("queue", kRequired),
        int_param("threshold", 0, INT64_MAX, 800)}});
}

}  // namespace components
