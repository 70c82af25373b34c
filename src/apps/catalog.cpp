#include "apps/catalog.hpp"

#include <limits>

#include "apps/apps.hpp"
#include "support/strings.hpp"

namespace apps {
namespace {

// `value` as an int in [lo, hi]; errors name the key.
support::Result<int> int_param(const std::string& key,
                               const std::string& value,
                               int lo = std::numeric_limits<int>::min(),
                               int hi = std::numeric_limits<int>::max()) {
  auto v = support::parse_int_in(value, lo, hi);
  if (!v.is_ok())
    return support::invalid_argument(support::format(
        "catalog: %s: %s", key.c_str(), v.status().message().c_str()));
  return static_cast<int>(v.value());
}

// Most distinct frames a catalog clip may hold ("frames" key).
constexpr int kMaxClipFrames = 64;

// Apply one override; true if `key` is known to this app.
template <typename Config>
support::Result<bool> apply_common(Config* c, const std::string& key,
                                   const std::string& value) {
  if (key == "width") {
    SUP_ASSIGN_OR_RETURN(c->width, int_param(key, value, 1, kMaxFrameSide));
  } else if (key == "height") {
    SUP_ASSIGN_OR_RETURN(c->height, int_param(key, value, 1, kMaxFrameSide));
  } else if (key == "frames") {
    SUP_ASSIGN_OR_RETURN(c->clip_frames,
                         int_param(key, value, 1, kMaxClipFrames));
  } else if (key == "slices") {
    SUP_ASSIGN_OR_RETURN(c->slices, int_param(key, value));
  } else {
    return false;
  }
  return true;
}

// The downscale component takes factors in [1, 256].
constexpr int kMaxFactor = 256;

// A PiP downscales the half-size chroma planes by `factor`, so each side
// must be at least 2 x factor or a chroma pip would have no pixels.
support::Status check_pip_size(const char* app, int width, int height,
                               int factor) {
  if (width < 2 * factor || height < 2 * factor)
    return support::invalid_argument(support::format(
        "catalog: %s: %dx%d is below 2 x factor (%d) on a side", app, width,
        height, 2 * factor));
  return support::Status::ok();
}

// Each further picture-in-picture sits lower on the canvas, so the last
// one bounds `pips`: its rectangle must lie inside the canvas. The cap
// of kMaxFrameSide applied when the key is parsed keeps the position
// arithmetic inside int; this is the real bound.
template <typename Config>
support::Status check_pips_fit(const char* app, const Config& c,
                               void (*position)(const Config&, int, int*,
                                                int*)) {
  int x = 0, y = 0;
  position(c, c.pips - 1, &x, &y);
  int w = c.width / c.factor;
  int h = c.height / c.factor;
  if (x < 0 || y < 0 || x + w > c.width || y + h > c.height)
    return support::invalid_argument(support::format(
        "catalog: %s: pips=%d does not fit the %dx%d canvas (picture %d is "
        "%dx%d at %d,%d)",
        app, c.pips, c.width, c.height, c.pips, w, h, x, y));
  return support::Status::ok();
}

support::Status unknown_key(const char* app, const std::string& key) {
  return support::invalid_argument(
      support::format("catalog: app '%s' has no parameter '%s'", app,
                      key.c_str()));
}

}  // namespace

const std::vector<std::string>& catalog_names() {
  static const std::vector<std::string> names = {"pip", "jpip", "blur",
                                                 "mjpeg"};
  return names;
}

support::Result<std::string> builtin_xspcl(
    const std::string& name, const std::vector<CatalogParam>& params) {
  if (name == "pip") {
    PipConfig c;
    for (const auto& [key, value] : params) {
      SUP_ASSIGN_OR_RETURN(bool common, apply_common(&c, key, value));
      if (common) continue;
      if (key == "pips") {
        SUP_ASSIGN_OR_RETURN(c.pips, int_param(key, value, 1, kMaxFrameSide));
      } else if (key == "factor") {
        SUP_ASSIGN_OR_RETURN(c.factor, int_param(key, value, 1, kMaxFactor));
      } else if (key == "reconfigurable") {
        SUP_ASSIGN_OR_RETURN(int v, int_param(key, value));
        c.reconfigurable = v != 0;
      } else {
        return unknown_key("pip", key);
      }
    }
    if (c.reconfigurable && c.pips < 2) c.pips = 2;  // PiP-12 toggles pip #2
    SUP_RETURN_IF_ERROR(check_pip_size("pip", c.width, c.height, c.factor));
    SUP_RETURN_IF_ERROR(check_pips_fit("pip", c, &pip_position));
    return pip_xspcl(c);
  }
  if (name == "jpip") {
    JpipConfig c;
    for (const auto& [key, value] : params) {
      SUP_ASSIGN_OR_RETURN(bool common, apply_common(&c, key, value));
      if (common) continue;
      if (key == "pips") {
        SUP_ASSIGN_OR_RETURN(c.pips, int_param(key, value, 1, kMaxFrameSide));
      } else if (key == "factor") {
        SUP_ASSIGN_OR_RETURN(c.factor, int_param(key, value, 1, kMaxFactor));
      } else if (key == "quality") {
        SUP_ASSIGN_OR_RETURN(c.quality, int_param(key, value, 1, 100));
      } else if (key == "grouped") {
        SUP_ASSIGN_OR_RETURN(int v, int_param(key, value));
        c.grouped = v != 0;
      } else if (key == "reconfigurable") {
        SUP_ASSIGN_OR_RETURN(int v, int_param(key, value));
        c.reconfigurable = v != 0;
      } else {
        return unknown_key("jpip", key);
      }
    }
    if (c.reconfigurable && c.pips < 2) c.pips = 2;  // JPiP-12 toggles pip #2
    SUP_RETURN_IF_ERROR(check_pip_size("jpip", c.width, c.height, c.factor));
    SUP_RETURN_IF_ERROR(check_pips_fit("jpip", c, &jpip_position));
    return jpip_xspcl(c);
  }
  if (name == "blur") {
    BlurConfig c;
    for (const auto& [key, value] : params) {
      SUP_ASSIGN_OR_RETURN(bool common, apply_common(&c, key, value));
      if (common) continue;
      if (key == "kernel") {
        SUP_ASSIGN_OR_RETURN(c.kernel, int_param(key, value));
        if (c.kernel != 3 && c.kernel != 5)
          return support::invalid_argument(support::format(
              "catalog: kernel: %d is not 3 or 5", c.kernel));
      } else if (key == "reconfigurable") {
        SUP_ASSIGN_OR_RETURN(int v, int_param(key, value));
        c.reconfigurable = v != 0;
      } else {
        return unknown_key("blur", key);
      }
    }
    return blur_xspcl(c);
  }
  if (name == "mjpeg") {
    MjpegDecodeConfig c;
    for (const auto& [key, value] : params) {
      SUP_ASSIGN_OR_RETURN(bool common, apply_common(&c, key, value));
      if (common) continue;
      if (key == "quality") {
        SUP_ASSIGN_OR_RETURN(c.quality, int_param(key, value, 1, 100));
      } else if (key == "restart") {
        SUP_ASSIGN_OR_RETURN(c.restart, int_param(key, value));
      } else {
        return unknown_key("mjpeg", key);
      }
    }
    return mjpeg_xspcl(c);
  }
  std::string known;
  for (const std::string& n : catalog_names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return support::invalid_argument(support::format(
      "catalog: unknown app '%s' (known: %s)", name.c_str(), known.c_str()));
}

support::Result<std::vector<CatalogParam>> parse_catalog_params(
    const std::vector<std::string>& tokens) {
  std::vector<CatalogParam> params;
  params.reserve(tokens.size());
  for (const std::string& tok : tokens) {
    size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0)
      return support::invalid_argument(support::format(
          "catalog: expected key=value, got '%s'", tok.c_str()));
    params.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
  }
  return params;
}

}  // namespace apps
