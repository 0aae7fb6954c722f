//===- support/Hash.h - deterministic hashing -------------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FNV-1a 64, the one hash the project uses for stable identifiers
/// (config hashes, cache-store fingerprints). Header-only so every user
/// shares the same constants; determinism across builds and platforms is
/// the whole point.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_SUPPORT_HASH_H
#define RAMLOC_SUPPORT_HASH_H

#include <cstdint>
#include <cstring>
#include <string_view>

namespace ramloc {

inline constexpr uint64_t Fnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t Fnv1aPrime = 0x100000001b3ULL;

/// Folds \p Bytes into the running state \p H.
inline uint64_t fnv1a64(uint64_t H, std::string_view Bytes) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= Fnv1aPrime;
  }
  return H;
}

/// Folds \p N zero bytes into \p H. A zero byte leaves the XOR step a
/// no-op, so the run is one multiply by Fnv1aPrime^N (mod 2^64), taken by
/// squaring.
inline uint64_t fnv1a64Zeros(uint64_t H, uint64_t N) {
  for (uint64_t P = Fnv1aPrime; N != 0; N >>= 1, P *= P)
    if (N & 1)
      H *= P;
  return H;
}

/// fnv1a64(H, Bytes), faster on mostly-zero buffers (memory images): an
/// all-zero 8-byte word extends the pending zero run instead of being
/// folded byte by byte. Short keys should use fnv1a64, which has no
/// branch to pay for.
inline uint64_t fnv1a64Sparse(uint64_t H, std::string_view Bytes) {
  const char *P = Bytes.data();
  size_t N = Bytes.size();
  uint64_t Zeros = 0;
  size_t I = 0;
  for (; I + 8 <= N; I += 8) {
    uint64_t W;
    std::memcpy(&W, P + I, 8);
    if (W == 0) {
      Zeros += 8;
      continue;
    }
    H = fnv1a64(fnv1a64Zeros(H, Zeros), std::string_view(P + I, 8));
    Zeros = 0;
  }
  return fnv1a64(fnv1a64Zeros(H, Zeros), std::string_view(P + I, N - I));
}

/// One-shot hash of \p Bytes.
inline uint64_t fnv1a64(std::string_view Bytes) {
  return fnv1a64(Fnv1aOffset, Bytes);
}

} // namespace ramloc

#endif // RAMLOC_SUPPORT_HASH_H
