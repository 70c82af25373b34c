#include <cmath>
#include <cstring>

#include "media/jpeg.hpp"
#include "media/jpeg_common.hpp"
#include "support/strings.hpp"

namespace media::jpeg {
namespace {

// ---- bit writer with 0xFF byte stuffing -------------------------------------

class BitWriter {
 public:
  explicit BitWriter(std::vector<uint8_t>& out) : out_(out) {}

  // Byte-align (1-fill) and emit a restart marker (T.81 §B.2.1.2).
  void restart(int index) {
    flush();
    out_.push_back(0xff);
    out_.push_back(static_cast<uint8_t>(kRST0 + (index & 7)));
  }

  void put_bits(uint32_t bits, int count) {
    SUP_DCHECK(count >= 0 && count <= 24);
    acc_ = (acc_ << count) | (bits & ((1u << count) - 1));
    nbits_ += count;
    while (nbits_ >= 8) {
      uint8_t byte = static_cast<uint8_t>((acc_ >> (nbits_ - 8)) & 0xff);
      out_.push_back(byte);
      if (byte == 0xff) out_.push_back(0x00);  // stuffing
      nbits_ -= 8;
    }
  }

  // Pad with 1-bits to a byte boundary (T.81 §B.1.1.5).
  void flush() {
    if (nbits_ > 0) put_bits(0x7f, 8 - nbits_);
  }

 private:
  std::vector<uint8_t>& out_;
  uint64_t acc_ = 0;
  int nbits_ = 0;
};

// ---- forward DCT -------------------------------------------------------------

struct DctTables {
  // cos[(2x+1) u pi / 16] * scale(u), indexed [u][x]
  float c[8][8];
  DctTables() {
    for (int u = 0; u < 8; ++u) {
      float s = u == 0 ? std::sqrt(0.125f) : 0.5f;
      for (int x = 0; x < 8; ++x)
        c[u][x] = s * std::cos((2 * x + 1) * u * 3.14159265358979323846f / 16);
    }
  }
};

const DctTables& dct_tables() {
  static const DctTables t;
  return t;
}

// 2-D DCT-II of a level-shifted 8x8 block.
void fdct(const float in[64], float out[64]) {
  const DctTables& t = dct_tables();
  float tmp[64];
  // rows
  for (int y = 0; y < 8; ++y) {
    for (int u = 0; u < 8; ++u) {
      float acc = 0;
      for (int x = 0; x < 8; ++x) acc += in[y * 8 + x] * t.c[u][x];
      tmp[y * 8 + u] = acc;
    }
  }
  // columns
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      float acc = 0;
      for (int y = 0; y < 8; ++y) acc += tmp[y * 8 + u] * t.c[v][y];
      out[v * 8 + u] = acc;
    }
  }
}

// Number of bits needed to represent |v| (JPEG "magnitude category").
int magnitude_bits(int v) {
  int a = v < 0 ? -v : v;
  int n = 0;
  while (a) {
    ++n;
    a >>= 1;
  }
  return n;
}

// ---- per-component encoding state --------------------------------------------

struct ComponentEnc {
  const std::array<uint16_t, 64>* quant;
  const HuffEncodeTable* dc;
  const HuffEncodeTable* ac;
  int prev_dc = 0;
};

// Extract the 8x8 block at (bx, by) from a plane, replicating edge pixels,
// level-shifted by -128.
void extract_block(ConstPlaneView p, int bx, int by, float out[64]) {
  for (int y = 0; y < 8; ++y) {
    int sy = by * 8 + y;
    if (sy >= p.height) sy = p.height - 1;
    const uint8_t* row = p.row(sy);
    for (int x = 0; x < 8; ++x) {
      int sx = bx * 8 + x;
      if (sx >= p.width) sx = p.width - 1;
      out[y * 8 + x] = static_cast<float>(row[sx]) - 128.0f;
    }
  }
}

void encode_block(BitWriter& bw, ComponentEnc& comp, const float pixels[64]) {
  float freq[64];
  fdct(pixels, freq);

  // Quantize into zig-zag order.
  int16_t zz[64];
  for (int i = 0; i < 64; ++i) {
    float q = freq[kZigZag[i]] / static_cast<float>((*comp.quant)[kZigZag[i]]);
    zz[i] = static_cast<int16_t>(std::lround(q));
  }

  // DC coefficient: difference from predictor.
  int diff = zz[0] - comp.prev_dc;
  comp.prev_dc = zz[0];
  int nbits = magnitude_bits(diff);
  SUP_CHECK(comp.dc->size[static_cast<size_t>(nbits)] != 0);
  bw.put_bits(comp.dc->code[static_cast<size_t>(nbits)],
              comp.dc->size[static_cast<size_t>(nbits)]);
  if (nbits > 0) {
    int bits = diff < 0 ? diff + (1 << nbits) - 1 : diff;
    bw.put_bits(static_cast<uint32_t>(bits), nbits);
  }

  // AC coefficients: run-length of zeros + magnitude.
  int run = 0;
  for (int i = 1; i < 64; ++i) {
    if (zz[i] == 0) {
      ++run;
      continue;
    }
    while (run > 15) {
      bw.put_bits(comp.ac->code[0xf0], comp.ac->size[0xf0]);  // ZRL
      run -= 16;
    }
    int abits = magnitude_bits(zz[i]);
    uint8_t sym = static_cast<uint8_t>((run << 4) | abits);
    SUP_CHECK(comp.ac->size[sym] != 0);
    bw.put_bits(comp.ac->code[sym], comp.ac->size[sym]);
    int bits = zz[i] < 0 ? zz[i] + (1 << abits) - 1 : zz[i];
    bw.put_bits(static_cast<uint32_t>(bits), abits);
    run = 0;
  }
  if (run > 0) bw.put_bits(comp.ac->code[0x00], comp.ac->size[0x00]);  // EOB
}

// ---- header segments -----------------------------------------------------------

void put_marker(std::vector<uint8_t>& out, uint8_t marker) {
  out.push_back(0xff);
  out.push_back(marker);
}

void put_u16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v & 0xff));
}

void put_dqt(std::vector<uint8_t>& out, int id,
             const std::array<uint16_t, 64>& table) {
  put_marker(out, kDQT);
  put_u16(out, 2 + 1 + 64);
  out.push_back(static_cast<uint8_t>(id));  // precision 0, table id
  for (int i = 0; i < 64; ++i)
    out.push_back(static_cast<uint8_t>(table[kZigZag[i]]));
}

void put_dht(std::vector<uint8_t>& out, int cls, int id,
             const HuffSpec& spec) {
  put_marker(out, kDHT);
  put_u16(out, static_cast<uint16_t>(2 + 1 + 16 + spec.value_count));
  out.push_back(static_cast<uint8_t>((cls << 4) | id));
  for (int i = 0; i < 16; ++i) out.push_back(spec.bits[i]);
  for (int i = 0; i < spec.value_count; ++i) out.push_back(spec.values[i]);
}

}  // namespace

support::Result<std::vector<uint8_t>> encode(const Frame& frame, int quality,
                                             int restart_interval) {
  if (quality < 1 || quality > 100)
    return support::invalid_argument("JPEG quality must be in [1, 100]");
  if (restart_interval < 0 || restart_interval > 65535)
    return support::invalid_argument(
        "JPEG restart interval must be in [0, 65535]");
  const bool gray = frame.format() == PixelFormat::kGray;
  if (!gray && frame.format() != PixelFormat::kYuv420)
    return support::unimplemented(
        "JPEG encoder supports kGray and kYuv420 input");
  if (frame.width() > 65535 || frame.height() > 65535)
    return support::invalid_argument("frame too large for JPEG");

  const auto luma_q = scale_quant_table(kStdLumaQuant, quality);
  const auto chroma_q = scale_quant_table(kStdChromaQuant, quality);
  const HuffEncodeTable dc_l = build_encode_table(std_dc_luma());
  const HuffEncodeTable ac_l = build_encode_table(std_ac_luma());
  const HuffEncodeTable dc_c = build_encode_table(std_dc_chroma());
  const HuffEncodeTable ac_c = build_encode_table(std_ac_chroma());

  std::vector<uint8_t> out;
  out.reserve(frame.bytes() / 4);

  put_marker(out, kSOI);
  put_dqt(out, 0, luma_q);
  if (!gray) put_dqt(out, 1, chroma_q);

  // SOF0.
  put_marker(out, kSOF0);
  const int ncomp = gray ? 1 : 3;
  put_u16(out, static_cast<uint16_t>(8 + 3 * ncomp));
  out.push_back(8);  // precision
  put_u16(out, static_cast<uint16_t>(frame.height()));
  put_u16(out, static_cast<uint16_t>(frame.width()));
  out.push_back(static_cast<uint8_t>(ncomp));
  if (gray) {
    out.push_back(1);     // component id
    out.push_back(0x11);  // 1x1 sampling
    out.push_back(0);     // quant table 0
  } else {
    out.push_back(1);
    out.push_back(0x22);  // Y: 2x2
    out.push_back(0);
    out.push_back(2);
    out.push_back(0x11);  // Cb
    out.push_back(1);
    out.push_back(3);
    out.push_back(0x11);  // Cr
    out.push_back(1);
  }

  if (restart_interval > 0) {
    put_marker(out, kDRI);
    put_u16(out, 4);
    put_u16(out, static_cast<uint16_t>(restart_interval));
  }

  put_dht(out, 0, 0, std_dc_luma());
  put_dht(out, 1, 0, std_ac_luma());
  if (!gray) {
    put_dht(out, 0, 1, std_dc_chroma());
    put_dht(out, 1, 1, std_ac_chroma());
  }

  // SOS.
  put_marker(out, kSOS);
  put_u16(out, static_cast<uint16_t>(6 + 2 * ncomp));
  out.push_back(static_cast<uint8_t>(ncomp));
  out.push_back(1);
  out.push_back(0x00);  // Y uses DC 0 / AC 0
  if (!gray) {
    out.push_back(2);
    out.push_back(0x11);
    out.push_back(3);
    out.push_back(0x11);
  }
  out.push_back(0);     // spectral start
  out.push_back(63);    // spectral end
  out.push_back(0);     // successive approximation

  // Entropy-coded data.
  BitWriter bw(out);
  float pixels[64];
  int mcu_count = 0;
  int restart_index = 0;
  // Between MCUs: emit RSTn and reset the DC predictors every
  // `restart_interval` MCUs.
  auto maybe_restart = [&](std::initializer_list<ComponentEnc*> comps) {
    if (restart_interval <= 0) return;
    if (mcu_count == restart_interval) {
      bw.restart(restart_index);
      restart_index = (restart_index + 1) & 7;
      mcu_count = 0;
      for (ComponentEnc* c : comps) c->prev_dc = 0;
    }
  };
  if (gray) {
    ComponentEnc y{&luma_q, &dc_l, &ac_l, 0};
    ConstPlaneView p = frame.plane(0);
    const int bw_blocks = (p.width + 7) / 8;
    const int bh_blocks = (p.height + 7) / 8;
    for (int by = 0; by < bh_blocks; ++by) {
      for (int bx = 0; bx < bw_blocks; ++bx) {
        maybe_restart({&y});
        extract_block(p, bx, by, pixels);
        encode_block(bw, y, pixels);
        ++mcu_count;
      }
    }
  } else {
    ComponentEnc yc{&luma_q, &dc_l, &ac_l, 0};
    ComponentEnc uc{&chroma_q, &dc_c, &ac_c, 0};
    ComponentEnc vc{&chroma_q, &dc_c, &ac_c, 0};
    ConstPlaneView yp = frame.plane(0);
    ConstPlaneView up = frame.plane(1);
    ConstPlaneView vp = frame.plane(2);
    const int mcus_x = (frame.width() + 15) / 16;
    const int mcus_y = (frame.height() + 15) / 16;
    for (int my = 0; my < mcus_y; ++my) {
      for (int mx = 0; mx < mcus_x; ++mx) {
        maybe_restart({&yc, &uc, &vc});
        for (int sy = 0; sy < 2; ++sy) {
          for (int sx = 0; sx < 2; ++sx) {
            extract_block(yp, mx * 2 + sx, my * 2 + sy, pixels);
            encode_block(bw, yc, pixels);
          }
        }
        extract_block(up, mx, my, pixels);
        encode_block(bw, uc, pixels);
        extract_block(vp, mx, my, pixels);
        encode_block(bw, vc, pixels);
        ++mcu_count;
      }
    }
  }
  bw.flush();
  put_marker(out, kEOI);
  return out;
}

}  // namespace media::jpeg
