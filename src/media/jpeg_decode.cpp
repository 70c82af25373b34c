#include <algorithm>
#include <cmath>
#include <cstring>

#include "media/jpeg.hpp"
#include "media/jpeg_common.hpp"
#include "media/kernels.hpp"
#include "media/kernels_simd.hpp"
#include "support/strings.hpp"

namespace media::jpeg {
namespace {

support::Status bad(const char* what) {
  return support::invalid_argument(std::string("JPEG decode: ") + what);
}

support::Status bad(const std::string& what) {
  return support::invalid_argument("JPEG decode: " + what);
}

// Why entropy data ran out: a real marker (possibly a legitimate segment
// end) versus plain truncation. Surfaced in decode errors so a chopped
// stream is distinguishable from a corrupt one.
enum class BitEnd { kNone, kMarker, kEof };

support::Status entropy_error(BitEnd end, const char* what) {
  switch (end) {
    case BitEnd::kEof:
      return bad(std::string(what) + " (entropy data truncated: unexpected "
                                     "end of stream)");
    case BitEnd::kMarker:
      return bad(std::string(what) + " (entropy data cut short by a "
                                     "marker)");
    default:
      return bad(what);
  }
}

// ---- reference bit reader: one byte at a time, bit-serial ------------------
//
// The original decoder path, kept as the equivalence baseline for tests
// and as the "before" leg of the decode microbench. Handles 0xFF00
// unstuffing and stops at real markers.

class RefBitReader {
 public:
  RefBitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  void set_pos(size_t pos) { pos_ = pos; }
  size_t pos() const { return pos_; }
  BitEnd end_reason() const { return end_; }

  // Returns -1 on end of data / marker encountered.
  int next_bit() {
    if (nbits_ == 0) {
      if (!fill()) return -1;
    }
    --nbits_;
    return (acc_ >> nbits_) & 1;
  }

  // Read `n` bits MSB-first; -1 on failure.
  int32_t get_bits(int n) {
    int32_t v = 0;
    for (int i = 0; i < n; ++i) {
      int b = next_bit();
      if (b < 0) return -1;
      v = (v << 1) | b;
    }
    return v;
  }

  // Align to a byte boundary and consume an expected RSTn marker.
  bool consume_restart(int expected_index) {
    nbits_ = 0;
    if (pos_ + 1 >= size_) return false;
    if (data_[pos_] != 0xff) return false;
    uint8_t m = data_[pos_ + 1];
    if (m != static_cast<uint8_t>(kRST0 + (expected_index & 7))) return false;
    pos_ += 2;
    end_ = BitEnd::kNone;
    return true;
  }

  // True when only byte-alignment padding remains buffered and the next
  // bytes in the stream are the given marker.
  bool at_trailing_marker(uint8_t marker) const {
    if (nbits_ >= 8) return false;  // whole undecoded entropy bytes remain
    return pos_ + 1 < size_ && data_[pos_] == 0xff &&
           data_[pos_ + 1] == marker;
  }

 private:
  bool fill() {
    while (pos_ < size_) {
      uint8_t byte = data_[pos_];
      if (byte == 0xff) {
        if (pos_ + 1 < size_ && data_[pos_ + 1] == 0x00) {
          pos_ += 2;  // stuffed 0xff
          acc_ = 0xff;
          nbits_ = 8;
          return true;
        }
        // A real marker terminates entropy data; a lone trailing 0xFF is
        // a truncated marker.
        end_ = pos_ + 1 < size_ ? BitEnd::kMarker : BitEnd::kEof;
        return false;
      }
      ++pos_;
      acc_ = byte;
      nbits_ = 8;
      return true;
    }
    end_ = BitEnd::kEof;
    return false;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  uint32_t acc_ = 0;
  int nbits_ = 0;
  BitEnd end_ = BitEnd::kNone;
};

// Decode one Huffman symbol bit-serially (T.81 §F.2.2.3). Returns -1 on
// failure.
int decode_symbol(RefBitReader& br, const HuffDecodeTable& t) {
  int32_t code = br.next_bit();
  if (code < 0) return -1;
  for (int len = 1; len <= 16; ++len) {
    if (t.max_code[static_cast<size_t>(len)] >= 0 &&
        code <= t.max_code[static_cast<size_t>(len)]) {
      int idx = t.val_ptr[static_cast<size_t>(len)] +
                (code - t.min_code[static_cast<size_t>(len)]);
      if (idx < 0 || idx >= static_cast<int>(t.values.size())) return -1;
      return t.values[static_cast<size_t>(idx)];
    }
    int b = br.next_bit();
    if (b < 0) return -1;
    code = (code << 1) | b;
  }
  return -1;
}

// ---- fast bit reader: 64-bit accumulator with bulk refill ------------------
//
// Buffers up to 63 bits so a whole (symbol, magnitude-bits) pair is
// usually served without touching memory management. Refill performs the
// 0xFF00 unstuffing byte-by-byte but only runs every ~6 symbols; it never
// buffers past a real marker, so buffered bits always belong to the
// current entropy segment.

class FastBitReader {
 public:
  FastBitReader(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}

  void set_pos(size_t pos) { pos_ = pos; }
  size_t pos() const { return pos_; }
  BitEnd end_reason() const { return end_; }
  int bits() const { return nbits_; }

  // Top up the accumulator to >= 57 bits or until the entropy segment
  // ends (marker or EOF).
  void refill() {
    // Bulk path: gulp 4 bytes at a time while none of them is 0xFF (no
    // stuffing, no marker, no EOF possible). The bit trick flags any
    // all-ones byte in the word; anything flagged falls through to the
    // byte loop, which keeps the exact stuffing/marker/EOF semantics.
    while (end_ == BitEnd::kNone && nbits_ <= 32 && pos_ + 4 <= size_) {
      // memcpy + bswap compiles to one load + one byte swap; gcc does
      // not fold the equivalent shift-or idiom on this path.
      uint32_t wle;
      std::memcpy(&wle, data_ + pos_, 4);
      const uint32_t w = __builtin_bswap32(wle);
      uint32_t x = w ^ 0xffffffffu;  // a 0xff byte becomes 0x00
      if (((x - 0x01010101u) & ~x & 0x80808080u) != 0) break;
      acc_ = (acc_ << 32) | w;
      nbits_ += 32;
      pos_ += 4;
    }
    while (nbits_ <= 56) {
      if (end_ != BitEnd::kNone) return;
      if (pos_ >= size_) {
        end_ = BitEnd::kEof;
        return;
      }
      uint8_t byte = data_[pos_];
      if (byte == 0xff) {
        if (pos_ + 1 >= size_) {
          end_ = BitEnd::kEof;  // truncated marker
          return;
        }
        if (data_[pos_ + 1] != 0x00) {
          end_ = BitEnd::kMarker;
          return;
        }
        pos_ += 2;  // stuffed 0xff data byte
      } else {
        ++pos_;
      }
      acc_ = (acc_ << 8) | byte;
      nbits_ += 8;
    }
  }

  // Next `n` buffered bits MSB-first; requires 1 <= n <= bits().
  uint32_t peek(int n) const {
    return static_cast<uint32_t>(acc_ >> (nbits_ - n)) &
           ((1u << n) - 1);
  }
  void consume(int n) { nbits_ -= n; }

  int take_bit() {
    --nbits_;
    return static_cast<int>((acc_ >> nbits_) & 1);
  }

  // Read `n` <= 16 bits MSB-first; -1 on failure.
  int32_t get_bits(int n) {
    if (n == 0) return 0;
    if (nbits_ < n) {
      refill();
      if (nbits_ < n) return -1;
    }
    uint32_t v = peek(n);
    consume(n);
    return static_cast<int32_t>(v);
  }

  // Align to a byte boundary and consume an expected RSTn marker. Any
  // buffered bits are the pad bits of the final entropy byte before the
  // marker (refill never crosses a marker), so dropping them realigns.
  bool consume_restart(int expected_index) {
    acc_ = 0;
    nbits_ = 0;
    if (pos_ + 1 >= size_) return false;
    if (data_[pos_] != 0xff) return false;
    uint8_t m = data_[pos_ + 1];
    if (m != static_cast<uint8_t>(kRST0 + (expected_index & 7))) return false;
    pos_ += 2;
    end_ = BitEnd::kNone;
    return true;
  }

  // True when only byte-alignment padding remains buffered and the next
  // bytes in the stream are the given marker. Refill never crosses a
  // marker, so after the final MCU the accumulator holds at most the pad
  // bits of the last entropy byte.
  bool at_trailing_marker(uint8_t marker) const {
    if (nbits_ >= 8) return false;  // whole undecoded entropy bytes remain
    return pos_ + 1 < size_ && data_[pos_] == 0xff &&
           data_[pos_ + 1] == marker;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  uint64_t acc_ = 0;  // low `nbits_` bits valid, stream order MSB-first
  int nbits_ = 0;
  BitEnd end_ = BitEnd::kNone;
};

// Decode one Huffman symbol: single table probe for codes up to
// kLookupBits, the canonical walk for the rest. Returns -1 on failure.
int decode_symbol(FastBitReader& br, const HuffDecodeTable& t) {
  if (br.bits() < 16) br.refill();
  if (br.bits() >= HuffDecodeTable::kLookupBits) {
    uint16_t entry = t.lookup[br.peek(HuffDecodeTable::kLookupBits)];
    if (entry != 0) {
      br.consume(entry >> 8);
      return entry & 0xff;
    }
    if (br.bits() >= 16) {
      // Long codes with a full window buffered: compare the leading
      // `len` window bits against max_code per length, starting past the
      // lookup-covered lengths. State-identical to the bit-serial walk
      // below (same bits consumed on success and on failure, and with
      // >= 16 buffered the walk would never refill mid-code).
      const uint32_t win = br.peek(16);
      for (int len = HuffDecodeTable::kLookupBits + 1; len <= 16; ++len) {
        const int32_t code = static_cast<int32_t>(win >> (16 - len));
        if (t.max_code[static_cast<size_t>(len)] >= 0 &&
            code <= t.max_code[static_cast<size_t>(len)]) {
          br.consume(len);
          int idx = t.val_ptr[static_cast<size_t>(len)] +
                    (code - t.min_code[static_cast<size_t>(len)]);
          if (idx < 0 || idx >= static_cast<int>(t.values.size())) return -1;
          return t.values[static_cast<size_t>(idx)];
        }
      }
      br.consume(16);
      return -1;
    }
  }
  // Long codes in a segment tail (fewer than 16 bits before the segment
  // ends): bit-serial canonical walk.
  int32_t code = 0;
  for (int len = 1; len <= 16; ++len) {
    if (br.bits() == 0) {
      br.refill();
      if (br.bits() == 0) return -1;
    }
    code = (code << 1) | br.take_bit();
    if (t.max_code[static_cast<size_t>(len)] >= 0 &&
        code <= t.max_code[static_cast<size_t>(len)]) {
      int idx = t.val_ptr[static_cast<size_t>(len)] +
                (code - t.min_code[static_cast<size_t>(len)]);
      if (idx < 0 || idx >= static_cast<int>(t.values.size())) return -1;
      return t.values[static_cast<size_t>(idx)];
    }
  }
  return -1;
}

// Sign-extend a `nbits`-wide magnitude value (T.81 EXTEND).
inline int extend(int v, int nbits) {
  return v < (1 << (nbits - 1)) ? v - (1 << nbits) + 1 : v;
}

// Hot-loop refill hoisting: one refill before each (symbol, value) pair
// covers the worst case (16 code bits + 11 magnitude bits), so the
// decode fast path below runs with no buffered-bits checks. The
// bit-serial reference reader keeps its per-bit flow.
inline void ensure_bits(FastBitReader& br) {
  if (br.bits() < 32) br.refill();
}
inline void ensure_bits(RefBitReader&) {}

// Fused (symbol, magnitude) decode: one wide peek covers the table
// probe AND the magnitude bits that follow, so the common case costs a
// single peek/consume round trip. Window width 26 >= kLookupBits code
// bits (10) + the widest magnitude field a symbol can carry through
// `entry & 0x0f` (15). Returns false — consuming nothing — for long
// codes (no table entry) and segment tails (< 26 buffered bits); the
// caller's slow path then reproduces the unfused decode exactly,
// including its error reporting order. A symbol that is invalid for its
// context (DC size > 11) still fully decodes here; the caller aborts on
// it before the over-consumed bits could matter.
inline bool decode_sym_mag(FastBitReader& br, const HuffDecodeTable& t,
                           int* sym, int32_t* mag) {
  constexpr int kWindow = 26;
  if (br.bits() < kWindow) return false;
  const uint32_t win = br.peek(kWindow);
  const uint16_t entry =
      t.lookup[win >> (kWindow - HuffDecodeTable::kLookupBits)];
  if (entry == 0) return false;  // long code: decode_symbol's walk
  const int len = entry >> 8;
  const int s = entry & 0x0f;
  br.consume(len + s);
  *sym = entry & 0xff;
  *mag = static_cast<int32_t>((win >> (kWindow - len - s)) &
                              ((1u << s) - 1));
  return true;
}
inline bool decode_sym_mag(RefBitReader&, const HuffDecodeTable&, int*,
                           int32_t*) {
  return false;  // reference reader always takes the bit-serial path
}

// Magnitude bits without the refill check; only valid right after
// ensure_bits + a successful symbol decode (<= 16 bits consumed leaves
// >= 16 buffered — enough for any magnitude width <= 11).
inline int32_t get_bits_hot(FastBitReader& br, int n) {
  if (br.bits() < n) return br.get_bits(n);  // segment tail
  uint32_t v = br.peek(n);
  br.consume(n);
  return static_cast<int32_t>(v);
}
inline int32_t get_bits_hot(RefBitReader& br, int n) {
  return br.get_bits(n);
}

struct FrameComponent {
  int id = 0;
  int h = 1, v = 1;     // sampling factors
  int quant_id = 0;
  int dc_table = 0, ac_table = 0;
  int dc_pred = 0;
};

// What the marker segments before the scan define: tables, components,
// geometry and where the entropy-coded data starts.
struct ScanHeader {
  std::array<std::array<uint16_t, 64>, 4> quant_tables{};
  std::array<HuffDecodeTable, 4> dc_tables;
  std::array<HuffDecodeTable, 4> ac_tables;
  std::vector<FrameComponent> comps;
  int width = 0;
  int height = 0;
  PixelFormat format = PixelFormat::kGray;
  int restart_interval = 0;
  size_t scan_start = 0;  // first entropy byte
  int mcus_x = 0;
  int mcus_y = 0;
};

// Entropy-decode MCUs [mx0, mx1) of MCU row `my`, all inside one restart
// segment. The reader must be positioned inside the segment, and `h.comps`
// carries the DC predictors (reset to 0 at every restart boundary by the
// caller). The blocks land in `img` at MCU row `my - row0`: row0 is 0
// when `img` holds the whole frame, `my` when it holds one MCU row.
// Nonzero-coefficient counts accumulate into *nonzero.
template <class Reader>
support::Status decode_mcu_run(Reader& br, ScanHeader& h, int my, int mx0,
                               int mx1, int row0, CoeffImage& img,
                               size_t* nonzero, bool zero_blocks) {
  for (int mx = mx0; mx < mx1; ++mx) {
    for (size_t ci = 0; ci < h.comps.size(); ++ci) {
      FrameComponent& c = h.comps[ci];
      const HuffDecodeTable& dct = h.dc_tables[static_cast<size_t>(c.dc_table)];
      const HuffDecodeTable& act = h.ac_tables[static_cast<size_t>(c.ac_table)];
      if (!dct.valid || !act.valid) return bad("missing Huffman table");
      const auto& q = h.quant_tables[static_cast<size_t>(c.quant_id)];
      CoeffPlane& cp = img.comps[ci];
      for (int sy = 0; sy < c.v; ++sy) {
        for (int sx = 0; sx < c.h; ++sx) {
          int bx = mx * c.h + sx;
          int by = (my - row0) * c.v + sy;
          auto& block =
              cp.blocks[static_cast<size_t>(by) * cp.blocks_w + bx];
          // Reused coefficient buffers are zeroed here (not with a
          // full-image memset at allocation) so the store stays
          // cache-hot; a freshly resized buffer is already
          // value-initialized and skips the second zeroing pass.
          if (zero_blocks) block.fill(0);

          // DC.
          ensure_bits(br);
          int s = 0;
          int32_t dc_bits = 0;
          const bool dc_fused = decode_sym_mag(br, dct, &s, &dc_bits);
          if (!dc_fused) s = decode_symbol(br, dct);
          if (s < 0 || s > 11)
            return entropy_error(br.end_reason(), "bad DC symbol");
          int diff = 0;
          if (s > 0) {
            if (!dc_fused) {
              dc_bits = get_bits_hot(br, s);
              if (dc_bits < 0)
                return entropy_error(br.end_reason(), "truncated DC bits");
            }
            diff = extend(dc_bits, s);
          }
          c.dc_pred += diff;
          block[0] = static_cast<int16_t>(c.dc_pred * q[0]);
          if (c.dc_pred != 0) ++*nonzero;

          // AC.
          int k = 1;
          while (k < 64) {
            ensure_bits(br);
            int rs = 0;
            int32_t bits = 0;
            const bool fused = decode_sym_mag(br, act, &rs, &bits);
            if (!fused) {
              rs = decode_symbol(br, act);
              if (rs < 0)
                return entropy_error(br.end_reason(), "bad AC symbol");
            }
            int run = rs >> 4;
            int sbits = rs & 0x0f;
            if (sbits == 0) {
              if (run == 15) {
                k += 16;  // ZRL
                continue;
              }
              break;  // EOB
            }
            k += run;
            if (k > 63) return bad("AC run overflows block");
            if (!fused) {
              bits = get_bits_hot(br, sbits);
              if (bits < 0)
                return entropy_error(br.end_reason(), "truncated AC bits");
            }
            int v = extend(bits, sbits);
            block[kZigZag[k]] =
                static_cast<int16_t>(v * q[kZigZag[k]]);
            ++*nonzero;
            ++k;
          }
        }
      }
    }
  }
  return support::Status::ok();
}

// Entropy-decode the single interleaved scan of `h` into `img`, one MCU
// row at a time, and check the EOI that must follow it. Restart segments
// may start anywhere in a row (the interval need not divide mcus_x):
// every RSTn is checked in order and resets the DC predictors (T.81
// §F.2.1.3.1). `row_done(my)` runs after MCU row `my` is decoded; with
// `one_row` the image holds only that row, which the callback consumes
// before the next row overwrites it. Shared between the table-driven and
// bit-serial readers; both must produce identical coefficients (asserted
// by tests).
template <class Reader, class RowDone>
support::Status decode_scan(Reader& br, ScanHeader& h, CoeffImage& img,
                            bool zero_blocks, bool one_row,
                            RowDone&& row_done) {
  const int interval = h.restart_interval;
  int restart_index = 0;
  size_t nonzero = 0;
  br.set_pos(h.scan_start);
  for (int my = 0; my < h.mcus_y; ++my) {
    const int row_begin = my * h.mcus_x;
    const int row_end = row_begin + h.mcus_x;
    for (int mcu = row_begin; mcu < row_end;) {
      int end = row_end;
      if (interval > 0) {
        if (mcu > 0 && mcu % interval == 0) {
          if (!br.consume_restart(restart_index)) return bad("missing RSTn");
          restart_index = (restart_index + 1) & 7;
          for (FrameComponent& c : h.comps) c.dc_pred = 0;
        }
        end = std::min(row_end, (mcu / interval + 1) * interval);
      }
      support::Status st =
          decode_mcu_run(br, h, my, mcu - row_begin, end - row_begin,
                         one_row ? my : 0, img, &nonzero, zero_blocks);
      if (!st.is_ok()) return st;
      mcu = end;
    }
    row_done(my);
  }
  if (!br.at_trailing_marker(kEOI))
    return bad("entropy data not terminated by EOI");
  img.nonzero_coeffs += nonzero;
  return support::Status::ok();
}

// ---- inverse DCT ---------------------------------------------------------------

// Float reference tables: scale(u) * cos[(2x+1) u pi / 16], indexed [x][u].
struct IdctTables {
  float c[8][8];
  IdctTables() {
    for (int x = 0; x < 8; ++x) {
      for (int u = 0; u < 8; ++u) {
        float s = u == 0 ? std::sqrt(0.125f) : 0.5f;
        c[x][u] =
            s * std::cos((2 * x + 1) * u * 3.14159265358979323846f / 16);
      }
    }
  }
};

const IdctTables& idct_tables() {
  static const IdctTables t;
  return t;
}

// ---- fixed-point AAN IDCT ----------------------------------------------------
//
// Arai-Agui-Nakajima separable 8-point IDCT (the jidctfst flowgraph): 5
// multiplies + 29 adds per 1-D pass instead of 64 multiply-accumulates.
// Inputs are pre-scaled by s[u]*s[v] (s[0] = 1, s[k] = sqrt(2) cos(k
// pi/16)) folded into one 3.12 fixed-point multiplier table built once;
// the flowgraph then needs only four irrational constants. 64-bit
// intermediates keep the whole computation exact to well under 1 LSB of
// the float reference (asserted by tests).

// The shift amounts and irrational constants are shared with the vector
// IDCT tiers (media/kernels_simd.hpp) so scalar and SIMD run the same
// fixed-point flowgraph by construction.
using media::detail::kAanPrescaleBits;
using media::detail::kAanConstBits;
using media::detail::kAanPass1Shift;
using media::detail::kAanFinalShift;
using media::detail::kFix1_414213562;
using media::detail::kFix1_847759065;
using media::detail::kFix1_082392200;
using media::detail::kFix2_613125930;

inline int64_t aan_mul(int64_t x, int32_t k) {
  return (x * k + (1 << (kAanConstBits - 1))) >> kAanConstBits;
}

struct AanPrescale {
  int32_t m[64];
  AanPrescale() {
    for (int v = 0; v < 8; ++v) {
      for (int u = 0; u < 8; ++u) {
        double sv = v == 0 ? 1.0 : std::sqrt(2.0) *
                                       std::cos(v * 3.14159265358979323846 / 16);
        double su = u == 0 ? 1.0 : std::sqrt(2.0) *
                                       std::cos(u * 3.14159265358979323846 / 16);
        m[v * 8 + u] = static_cast<int32_t>(
            std::lround(sv * su * (1 << kAanPrescaleBits)));
      }
    }
  }
};

const AanPrescale& aan_prescale() {
  static const AanPrescale t;
  return t;
}

// One AAN 1-D inverse pass on eight int64 inputs (in flowgraph order
// 0..7 = frequencies), producing spatial samples x0..x7.
inline void aan_pass(int64_t i0, int64_t i1, int64_t i2, int64_t i3,
                     int64_t i4, int64_t i5, int64_t i6, int64_t i7,
                     int64_t out[8]) {
  // Even part.
  int64_t tmp10 = i0 + i4;
  int64_t tmp11 = i0 - i4;
  int64_t tmp13 = i2 + i6;
  int64_t tmp12 = aan_mul(i2 - i6, kFix1_414213562) - tmp13;
  int64_t e0 = tmp10 + tmp13;
  int64_t e3 = tmp10 - tmp13;
  int64_t e1 = tmp11 + tmp12;
  int64_t e2 = tmp11 - tmp12;

  // Odd part.
  int64_t z13 = i5 + i3;
  int64_t z10 = i5 - i3;
  int64_t z11 = i1 + i7;
  int64_t z12 = i1 - i7;
  int64_t o7 = z11 + z13;
  int64_t t11 = aan_mul(z11 - z13, kFix1_414213562);
  int64_t z5 = aan_mul(z10 + z12, kFix1_847759065);
  int64_t t10 = aan_mul(z12, kFix1_082392200) - z5;
  int64_t t12 = z5 - aan_mul(z10, kFix2_613125930);
  int64_t o6 = t12 - o7;
  int64_t o5 = t11 - o6;
  int64_t o4 = t10 + o5;

  out[0] = e0 + o7;
  out[7] = e0 - o7;
  out[1] = e1 + o6;
  out[6] = e1 - o6;
  out[2] = e2 + o5;
  out[5] = e2 - o5;
  out[4] = e3 + o4;
  out[3] = e3 - o4;
}

}  // namespace

void idct_block_float(const int16_t in[64], float out[64]) {
  const IdctTables& t = idct_tables();
  float tmp[64];
  // rows: for each row v, inverse over u
  for (int v = 0; v < 8; ++v) {
    for (int x = 0; x < 8; ++x) {
      float acc = 0;
      for (int u = 0; u < 8; ++u)
        acc += static_cast<float>(in[v * 8 + u]) * t.c[x][u];
      tmp[v * 8 + x] = acc;
    }
  }
  // columns
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      float acc = 0;
      for (int v = 0; v < 8; ++v) acc += tmp[v * 8 + x] * t.c[y][v];
      out[y * 8 + x] = acc;
    }
  }
}

void idct_block_fixed(const int16_t in[64], uint8_t out[64]) {
  // Routed through the runtime kernel dispatch table: the scalar
  // reference below, or a bit-exact vector tier (media::KernelDispatch).
  detail::kernel_ops()->idct8x8(in, aan_prescale().m, out, 8);
}

}  // namespace media::jpeg

namespace media::detail {

// The scalar fixed-point AAN IDCT: the bit-exactness reference every
// vector tier must match (and their per-block overflow fallback beyond
// kSimdIdctMaxCoef).
void idct8x8_scalar(const int16_t in[64], const int32_t prescale[64],
                    uint8_t* out, int stride) {
  const int32_t* m = prescale;
  int32_t ws[64];
  int64_t v[8];

  // Pass 1: columns, with the prescale multipliers folded into the load.
  for (int c = 0; c < 8; ++c) {
    if (in[8 + c] == 0 && in[16 + c] == 0 && in[24 + c] == 0 &&
        in[32 + c] == 0 && in[40 + c] == 0 && in[48 + c] == 0 &&
        in[56 + c] == 0) {
      // All-AC-zero column: the flowgraph degenerates to a constant.
      int32_t dc = static_cast<int32_t>(
          (static_cast<int64_t>(in[c]) * m[c] + (1 << (kAanPass1Shift - 1)))
          >> kAanPass1Shift);
      for (int r = 0; r < 8; ++r) ws[r * 8 + c] = dc;
      continue;
    }
    jpeg::aan_pass(static_cast<int64_t>(in[c]) * m[c],
                   static_cast<int64_t>(in[8 + c]) * m[8 + c],
                   static_cast<int64_t>(in[16 + c]) * m[16 + c],
                   static_cast<int64_t>(in[24 + c]) * m[24 + c],
                   static_cast<int64_t>(in[32 + c]) * m[32 + c],
                   static_cast<int64_t>(in[40 + c]) * m[40 + c],
                   static_cast<int64_t>(in[48 + c]) * m[48 + c],
                   static_cast<int64_t>(in[56 + c]) * m[56 + c], v);
    for (int r = 0; r < 8; ++r)
      ws[r * 8 + c] = static_cast<int32_t>(
          (v[r] + (1 << (kAanPass1Shift - 1))) >> kAanPass1Shift);
  }

  // Pass 2: rows, then descale, level-shift, clamp.
  for (int r = 0; r < 8; ++r) {
    const int32_t* w = ws + r * 8;
    jpeg::aan_pass(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], v);
    uint8_t* o = out + r * stride;
    for (int x = 0; x < 8; ++x) {
      int p = static_cast<int>((v[x] + (1 << (kAanFinalShift - 1))) >>
                               kAanFinalShift) +
              128;
      o[x] = static_cast<uint8_t>(p < 0 ? 0 : (p > 255 ? 255 : p));
    }
  }
}

}  // namespace media::detail

namespace media::jpeg {
namespace {

// Parse the marker segments up to and including SOS into *h.
support::Status parse_header(const uint8_t* data, size_t size,
                             ScanHeader* h) {
  if (size < 4 || data[0] != 0xff || data[1] != kSOI)
    return bad("missing SOI marker");

  std::array<bool, 4> quant_present{};
  size_t pos = 2;

  // --- marker segment parsing ---
  while (pos + 1 < size) {
    if (data[pos] != 0xff) return bad("expected marker");
    uint8_t marker = data[pos + 1];
    pos += 2;
    if (marker == kEOI) return bad("EOI before SOS");
    if (marker >= kRST0 && marker <= kRST0 + 7) continue;
    if (pos + 1 >= size) return bad("truncated segment");
    size_t seg_len = static_cast<size_t>(data[pos]) << 8 | data[pos + 1];
    if (seg_len < 2 || pos + seg_len > size) return bad("bad segment length");
    const uint8_t* seg = data + pos + 2;
    size_t len = seg_len - 2;

    switch (marker) {
      case kDQT: {
        size_t off = 0;
        while (off < len) {
          int precision = seg[off] >> 4;
          int id = seg[off] & 0x0f;
          if (id > 3) return bad("bad DQT id");
          ++off;
          size_t entry = precision ? 2 : 1;
          if (off + 64 * entry > len) return bad("truncated DQT");
          for (int i = 0; i < 64; ++i) {
            uint16_t q = precision
                             ? static_cast<uint16_t>(seg[off] << 8 | seg[off + 1])
                             : seg[off];
            h->quant_tables[static_cast<size_t>(id)][kZigZag[i]] = q;
            off += entry;
          }
          quant_present[static_cast<size_t>(id)] = true;
        }
        break;
      }
      case kDHT: {
        size_t off = 0;
        while (off + 17 <= len) {
          int cls = seg[off] >> 4;
          int id = seg[off] & 0x0f;
          if (cls > 1 || id > 3) return bad("bad DHT header");
          const uint8_t* bits = seg + off + 1;
          int count = 0;
          for (int i = 0; i < 16; ++i) count += bits[i];
          if (off + 17 + static_cast<size_t>(count) > len)
            return bad("truncated DHT");
          HuffDecodeTable t =
              build_decode_table(bits, seg + off + 17, count);
          if (!t.valid) return bad("inconsistent DHT");
          (cls == 0 ? h->dc_tables : h->ac_tables)[static_cast<size_t>(id)] =
              std::move(t);
          off += 17 + static_cast<size_t>(count);
        }
        break;
      }
      case kSOF0: {
        if (len < 6) return bad("truncated SOF0");
        if (seg[0] != 8) return bad("only 8-bit precision supported");
        h->height = seg[1] << 8 | seg[2];
        h->width = seg[3] << 8 | seg[4];
        int ncomp = seg[5];
        if (h->width <= 0 || h->height <= 0) return bad("bad dimensions");
        if (ncomp != 1 && ncomp != 3)
          return bad("only 1- or 3-component images supported");
        if (len < 6 + 3 * static_cast<size_t>(ncomp))
          return bad("truncated SOF0 components");
        h->comps.resize(static_cast<size_t>(ncomp));
        for (int i = 0; i < ncomp; ++i) {
          FrameComponent& c = h->comps[static_cast<size_t>(i)];
          c.id = seg[6 + 3 * i];
          c.h = seg[7 + 3 * i] >> 4;
          c.v = seg[7 + 3 * i] & 0x0f;
          c.quant_id = seg[8 + 3 * i];
          if (c.h < 1 || c.h > 2 || c.v < 1 || c.v > 2 || c.quant_id > 3)
            return bad("unsupported sampling / quant id");
        }
        break;
      }
      case kSOF0 + 1:
      case kSOF0 + 2:
        return bad("only baseline (SOF0) is supported");
      case kDRI:
        if (len < 2) return bad("truncated DRI");
        h->restart_interval = seg[0] << 8 | seg[1];
        break;
      case kSOS: {
        if (h->comps.empty()) return bad("SOS before SOF0");
        if (len < 1) return bad("truncated SOS");
        int ns = seg[0];
        if (ns != static_cast<int>(h->comps.size()))
          return bad("progressive/multi-scan images not supported");
        if (len < 1 + 2 * static_cast<size_t>(ns) + 3)
          return bad("truncated SOS header");
        for (int i = 0; i < ns; ++i) {
          int cid = seg[1 + 2 * i];
          int tables = seg[2 + 2 * i];
          bool found = false;
          for (FrameComponent& c : h->comps) {
            if (c.id == cid) {
              c.dc_table = tables >> 4;
              c.ac_table = tables & 0x0f;
              found = true;
            }
          }
          if (!found) return bad("SOS references unknown component");
        }
        h->scan_start = pos + seg_len;
        break;
      }
      default:
        break;  // APPn / COM / others: skip
    }
    pos += seg_len;
    if (h->scan_start) break;
  }
  if (!h->scan_start) return bad("no SOS marker found");

  // Validate sampling: all 1x1, or 2x2 luma with 1x1 chroma.
  const std::vector<FrameComponent>& cs = h->comps;
  bool yuv420 = false;
  if (cs.size() == 3) {
    if (cs[0].h == 2 && cs[0].v == 2 && cs[1].h == 1 && cs[1].v == 1 &&
        cs[2].h == 1 && cs[2].v == 1) {
      yuv420 = true;
    } else if (!(cs[0].h == 1 && cs[0].v == 1 && cs[1].h == 1 &&
                 cs[1].v == 1 && cs[2].h == 1 && cs[2].v == 1)) {
      return bad("only 4:2:0 and 4:4:4 sampling supported");
    }
  }
  for (const FrameComponent& c : cs)
    if (!quant_present[static_cast<size_t>(c.quant_id)])
      return bad("missing quantization table");

  h->format = cs.size() == 1
                  ? PixelFormat::kGray
                  : (yuv420 ? PixelFormat::kYuv420 : PixelFormat::kYuv444);
  const int mcu_side = yuv420 ? 16 : 8;
  h->mcus_x = (h->width + mcu_side - 1) / mcu_side;
  h->mcus_y = (h->height + mcu_side - 1) / mcu_side;
  return support::Status::ok();
}

// Shape `img` for the frame of `h`: `mcu_rows` MCU rows of blocks per
// component (mcus_y for the whole frame, 1 for a row of scratch).
// Returns whether the decode must zero each block before it writes it:
// a buffer growing from empty is value-initialized by the resize, while
// a reused one (streaming MJPEG decode) skips the multi-megabyte cold
// memset + page-fault pass here and is zeroed block by block as decode
// reaches it, where the store is cache-hot.
bool shape_coefficients(const ScanHeader& h, int mcu_rows, size_t size,
                        CoeffImage& img) {
  img.width = h.width;
  img.height = h.height;
  img.format = h.format;
  img.compressed_bytes = size;
  img.nonzero_coeffs = 0;
  img.comps.resize(h.comps.size());
  bool reused = false;
  for (size_t i = 0; i < h.comps.size(); ++i) {
    const FrameComponent& c = h.comps[i];
    CoeffPlane& cp = img.comps[i];
    cp.blocks_w = h.mcus_x * c.h;
    cp.blocks_h = mcu_rows * c.v;
    plane_dims(h.format, h.width, h.height, static_cast<int>(i), &cp.width,
               &cp.height);
    if (!cp.blocks.empty()) reused = true;
    cp.blocks.resize(
        static_cast<size_t>(cp.blocks_w) * static_cast<size_t>(cp.blocks_h));
  }
  return reused;
}

}  // namespace

support::Status decode_to_coefficients_into(const uint8_t* data, size_t size,
                                            CoeffImage* out,
                                            HuffmanImpl impl) {
  ScanHeader h;
  SUP_RETURN_IF_ERROR(parse_header(data, size, &h));
  const bool zero_blocks = shape_coefficients(h, h.mcus_y, size, *out);
  auto no_op = [](int) {};
  if (impl == HuffmanImpl::kBitSerial) {
    RefBitReader br(data, size);
    return decode_scan(br, h, *out, zero_blocks, /*one_row=*/false, no_op);
  }
  FastBitReader br(data, size);
  return decode_scan(br, h, *out, zero_blocks, /*one_row=*/false, no_op);
}

support::Result<CoeffImage> decode_to_coefficients(const uint8_t* data,
                                                   size_t size,
                                                   HuffmanImpl impl) {
  CoeffImage img;
  support::Status st = decode_to_coefficients_into(data, size, &img, impl);
  if (!st.is_ok()) return st;
  return img;
}

support::Status decode_into_planes(const uint8_t* data, size_t size,
                                   const PlaneSink& sink) {
  ScanHeader h;
  SUP_RETURN_IF_ERROR(parse_header(data, size, &h));
  CoeffImage row;
  shape_coefficients(h, 1, size, row);
  FrameLayout layout{h.format, h.width, h.height, {}};
  for (size_t i = 0; i < row.comps.size(); ++i)
    layout.blocks[i] = static_cast<uint64_t>(row.comps[i].blocks.size()) *
                       static_cast<uint64_t>(h.mcus_y);
  PlaneView planes[3];
  SUP_RETURN_IF_ERROR(sink(layout, planes));
  for (size_t i = 0; i < row.comps.size(); ++i)
    SUP_CHECK(planes[i].width == row.comps[i].width &&
              planes[i].height == row.comps[i].height);
  // The row's blocks are IDCT'd into the plane rows they cover; the
  // bottom row of a plane may hold padding block rows, which
  // idct_component skips.
  auto idct_row = [&](int my) {
    for (size_t i = 0; i < row.comps.size(); ++i) {
      CoeffPlane& cp = row.comps[i];
      const PlaneView& out = planes[i];
      const int y0 = my * cp.blocks_h * 8;
      cp.height = out.height - y0;
      idct_component(cp, PlaneView{out.data + static_cast<ptrdiff_t>(y0) *
                                                  out.stride,
                                   out.width, cp.height, out.stride},
                     0, cp.blocks_h);
    }
  };
  FastBitReader br(data, size);
  return decode_scan(br, h, row, /*zero_blocks=*/true, /*one_row=*/true,
                     idct_row);
}

void idct_component(const CoeffPlane& comp, PlaneView out, int block_row0,
                    int block_row1, IdctImpl impl) {
  SUP_CHECK(out.width == comp.width && out.height == comp.height);
  if (block_row0 < 0) block_row0 = 0;
  if (block_row1 > comp.blocks_h) block_row1 = comp.blocks_h;
  if (impl == IdctImpl::kFloatReference) {
    float pixels[64];
    for (int by = block_row0; by < block_row1; ++by) {
      for (int bx = 0; bx < comp.blocks_w; ++bx) {
        idct_block_float(
            comp.blocks[static_cast<size_t>(by) * comp.blocks_w + bx].data(),
            pixels);
        const int y_end = std::min(8, comp.height - by * 8);
        const int x_end = std::min(8, comp.width - bx * 8);
        for (int y = 0; y < y_end; ++y) {
          uint8_t* row = out.row(by * 8 + y) + bx * 8;
          for (int x = 0; x < x_end; ++x) {
            int v = static_cast<int>(std::lround(pixels[y * 8 + x])) + 128;
            row[x] = static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
          }
        }
      }
    }
    return;
  }
  // Hoist the dispatch-table fetch out of the block loop, and let
  // interior blocks write the plane directly (stride = plane stride);
  // only blocks clipped by the right/bottom plane edge stage through a
  // packed 64-byte buffer.
  const detail::KernelOps* ops = detail::kernel_ops();
  const int32_t* prescale = aan_prescale().m;
  uint8_t pixels[64];
  for (int by = block_row0; by < block_row1; ++by) {
    const int y_end = std::min(8, comp.height - by * 8);
    if (y_end <= 0) continue;
    uint8_t* row0 = out.row(by * 8);
    for (int bx = 0; bx < comp.blocks_w; ++bx) {
      const int x_end = std::min(8, comp.width - bx * 8);
      if (x_end <= 0) continue;  // padding block right of the plane
      const int16_t* block =
          comp.blocks[static_cast<size_t>(by) * comp.blocks_w + bx].data();
      if (x_end == 8 && y_end == 8) {
        ops->idct8x8(block, prescale, row0 + bx * 8, out.stride);
        continue;
      }
      ops->idct8x8(block, prescale, pixels, 8);
      for (int y = 0; y < y_end; ++y)
        std::memcpy(out.row(by * 8 + y) + bx * 8, pixels + y * 8,
                    static_cast<size_t>(x_end));
    }
  }
}

support::Result<FramePtr> decode(const uint8_t* data, size_t size) {
  FramePtr frame;
  SUP_RETURN_IF_ERROR(decode_into_planes(
      data, size,
      [&](const FrameLayout& layout, PlaneView* planes) {
        frame = make_frame(layout.format, layout.width, layout.height);
        for (int p = 0; p < frame->planes(); ++p) planes[p] = frame->plane(p);
        return support::Status::ok();
      }));
  return frame;
}

uint64_t entropy_decode_cycles(size_t compressed_bytes, size_t total_blocks) {
  // Bit-serial Huffman decoding: ~12 cycles per compressed byte plus fixed
  // per-block bookkeeping. This models the simulated TriMedia-like core,
  // NOT the host decoder — host-side optimizations must never change it
  // (see docs/PERF.md).
  return static_cast<uint64_t>(compressed_bytes) * 12 +
         static_cast<uint64_t>(total_blocks) * 24;
}

uint64_t idct_cycles(uint64_t blocks) {
  // Separable 8-point IDCT: ~480 multiply-accumulates + clamp per block.
  // Simulated-core cost; frozen independently of the host implementation.
  return blocks * 520;
}

}  // namespace media::jpeg
