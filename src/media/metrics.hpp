// Image quality metrics used in tests to validate the JPEG codec and the
// equivalence of XSPCL and hand-written application outputs.
#pragma once

#include "media/frame.hpp"

namespace media {

// Mean squared error between two planes of identical size.
double mse(ConstPlaneView a, ConstPlaneView b);

// Peak signal-to-noise ratio over all planes (dB). Returns +inf for
// identical frames. Frames must have identical format and size.
double psnr(const Frame& a, const Frame& b);

// Largest absolute pixel difference over all planes.
int max_abs_diff(const Frame& a, const Frame& b);

// The FNV-1a offset basis: the start of every digest chain (frame_hash
// seeds, sink checksums).
inline constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

// One step of every digest chain: mixes the word `v` into `h`. The step
// is a bijection of `h` for a fixed `v` and of `v` for a fixed `h`, so a
// change in either always changes the result; the shift carries a
// change in the high bits back down, where the next multiply spreads it.
inline uint64_t hash_fold(uint64_t h, uint64_t v) {
  h = (h ^ v) * 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 29);
}

// Digest of one plane's pixels, independent of its stride: each row is
// read as 64-bit words dealt round-robin to four independent lanes, its
// last width % 8 bytes go to a fifth lane, and the lanes and the plane's
// byte count are folded together at the end.
uint64_t plane_digest(ConstPlaneView p);

// The frame's plane digests folded in plane order onto `seed` (a
// previous frame's hash chains the next). Equal frames hash equal; a
// one-bit change in any pixel always changes the hash. Used to compare
// whole output videos across executions cheaply.
uint64_t frame_hash(const Frame& f, uint64_t seed = kFnvBasis);

}  // namespace media
