// FNV-1a, the one content hash: geometry and naming hashes, the tech
// signatures, the cache checksums and fingerprints, and the store's record
// checksums all mix through it. A word mixes as one value, not byte by
// byte; a string is length-prefixed unless the caller mixes raw bytes.
#pragma once

#include <cstdint>
#include <string_view>

namespace silc::geom {

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;  // offset basis

  void mix(std::uint64_t x) { h = (h ^ x) * 1099511628211ULL; }
  /// The bytes alone, no length prefix.
  void mix_bytes(std::string_view s) {
    for (const char c : s) mix(static_cast<unsigned char>(c));
  }
  /// The length, then the bytes.
  void mix_str(std::string_view s) {
    mix(s.size());
    mix_bytes(s);
  }
};

}  // namespace silc::geom
