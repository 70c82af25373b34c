// Shared declarations for the standard component library's translation
// units (registration hooks and small helpers).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "hinch/registry.hpp"
#include "media/frame.hpp"
#include "media/jpeg.hpp"
#include "support/status.hpp"

namespace components {

void register_sources(hinch::ComponentRegistry& registry);
void register_filters(hinch::ComponentRegistry& registry);
void register_jpeg_stages(hinch::ComponentRegistry& registry);
void register_fused(hinch::ComponentRegistry& registry);
void register_sinks(hinch::ComponentRegistry& registry);
void register_events(hinch::ComponentRegistry& registry);
void register_adaptive(hinch::ComponentRegistry& registry);

support::Result<media::PixelFormat> parse_format(const std::string& s);

// Largest frame side a source synthesizes, and the largest picture
// offset a blend takes (either sign).
constexpr int64_t kMaxSide = 16384;

// Index of the only input / output port of a one-in, one-out class.
constexpr int kIn = 0;
constexpr int kOut = 0;

// The params of downscale (factor, plane) and blend (x, y, alpha,
// plane); downscale_blend takes both, downscale's plane as src_plane.
std::vector<hinch::ParamSpec> downscale_params();
std::vector<hinch::ParamSpec> blend_params();

// Charge a touch for rows [row0, row1) of plane `plane` of the frame in
// the given port's slot.
void charge_touch_rows(hinch::ExecContext& ctx, bool is_input, int port,
                       const media::Frame& f, int plane, int row0, int row1);

// Bytes of a coefficient image's blocks (its stream packet payload).
uint64_t coeff_bytes(const media::jpeg::CoeffImage& img);

// The "pos=X,Y" reconfiguration request a blend honours: sets *x, *y;
// any other request leaves them as they are.
void parse_pos(std::string_view request, int* x, int* y);

}  // namespace components
