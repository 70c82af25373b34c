#include "components/detail.hpp"

#include "support/strings.hpp"

namespace components {

void charge_touch_rows(hinch::ExecContext& ctx, bool is_input, int port,
                       const media::Frame& f, int plane, int row0, int row1) {
  if (row1 <= row0) return;
  const auto width = static_cast<uint64_t>(f.plane(plane).width);
  uint64_t offset = f.plane_offset(plane) + static_cast<uint64_t>(row0) * width;
  uint64_t len = static_cast<uint64_t>(row1 - row0) * width;
  if (is_input) {
    ctx.touch_read(port, offset, len);
  } else {
    ctx.touch_write(port, offset, len);
  }
}

uint64_t coeff_bytes(const media::jpeg::CoeffImage& img) {
  uint64_t total = 0;
  for (const auto& c : img.comps)
    total += c.blocks.size() * sizeof(std::array<int16_t, 64>);
  return total;
}

void parse_pos(std::string_view request, int* x, int* y) {
  if (!support::starts_with(request, "pos=")) return;
  auto parts = support::split(request.substr(4), ',');
  if (parts.size() != 2) return;
  auto px = support::parse_int(parts[0]);
  auto py = support::parse_int(parts[1]);
  if (!px.is_ok() || !py.is_ok()) return;
  *x = static_cast<int>(px.value());
  *y = static_cast<int>(py.value());
}

}  // namespace components
