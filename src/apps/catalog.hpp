// Named access to the built-in application specs: "pip", "jpip", "blur",
// "mjpeg" -> XSPCL text, with a small string parameter surface.
//
// The multi-tenant server (tools/hinchd.cpp) and its load generator open
// sessions by app *name* over a line protocol; this catalog is the one
// place that maps those names (plus "key=value" parameter overrides)
// onto the typed *_xspcl() config structs, so the server, the bench and
// xspclc emit-app cannot drift apart on what "jpip" means.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "support/status.hpp"

namespace apps {

// One "key=value" override.
using CatalogParam = std::pair<std::string, std::string>;

// Largest width or height builtin_xspcl accepts: admits 3840x2160 and
// keeps every frame's byte size far inside int.
constexpr int kMaxFrameSide = 4096;

// Names accepted by builtin_xspcl, in stable order.
const std::vector<std::string>& catalog_names();

// The XSPCL spec for `name` with `params` applied over the app's default
// config. Common keys: "frames" (1..64 distinct frames in the looping
// source clip), slices, width and height (1..kMaxFrameSide); "pips"
// (>= 1, and the last picture-in-picture must fit the canvas) and
// "factor" (pip/jpip); "reconfigurable" (0/1,
// pip/jpip/blur; on pip/jpip it raises pips to 2); "kernel" (3 or 5,
// blur); "quality" (1..100, jpip/mjpeg); "grouped" (jpip). Unknown
// names list the catalog; unknown keys, non-numeric or out-of-range
// values are invalid-argument errors.
support::Result<std::string> builtin_xspcl(
    const std::string& name, const std::vector<CatalogParam>& params = {});

// Parse "key=value" tokens (the server protocol / CLI form).
support::Result<std::vector<CatalogParam>> parse_catalog_params(
    const std::vector<std::string>& tokens);

}  // namespace apps
