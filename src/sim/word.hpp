// Pluggable word backends for the compiled simulator's bit-parallel kernel.
//
// A "word" is the unit the tape interpreter evaluates: one boolean op over
// W lanes at once, one stimulus lane per bit. The baseline word is a plain
// uint64 (64 lanes): the portable path, and the lane-by-lane reference the
// wide word is tested against. On GCC/Clang the 512-bit word is a compiler
// vector extension (__attribute__((vector_size))), which lowers to the best
// ISA the *translation unit* is allowed to use; the kernel in vector.cpp is
// additionally compiled with target_clones so AVX2/AVX-512 encodings are
// selected at load time on machines that have them, with a plain SSE/scalar
// lowering everywhere else. On other compilers the wide word falls back to
// a portable struct of uint64 limbs — same semantics, auto-vectorizable.
//
// Memory layout contract (shared by CompiledSim and the kernel):
// a value slot occupies words_of(kind) consecutive uint64 limbs; lane L of
// slot S is bit (L % 64) of limb S * words_of(kind) + L / 64. Buffers fed
// to the wide kernels must be 64-byte aligned.
#pragma once

#include <cstdint>

namespace silc::sim {

#if defined(__GNUC__) || defined(__clang__)
#define SILC_SIM_VECTOR_EXT 1
// The explicit aligned() matters: without it GCC caps the type's alignment
// at the generic-ABI 16 bytes, but the AVX-512 clone of the kernel issues
// 64-byte *aligned* loads (lane storage comes from LaneBuffer, which
// over-aligns to 64). may_alias keeps the uint64-limb view of the same
// buffer (poke/peek/commit) defined under strict aliasing.
typedef std::uint64_t Word512
    __attribute__((vector_size(64), aligned(64), may_alias));
#else
// Portable fallback: a fixed-size limb array with the four bitwise ops the
// kernel needs. Plain loops so an optimizer can still vectorize them.
struct alignas(64) Word512 {
  std::uint64_t w[8];
};

#define SILC_SIM_WORD_OPS(W, N)                                       \
  inline W operator~(const W& a) {                                    \
    W r;                                                              \
    for (int i = 0; i < N; ++i) r.w[i] = ~a.w[i];                     \
    return r;                                                         \
  }                                                                   \
  inline W operator&(const W& a, const W& b) {                        \
    W r;                                                              \
    for (int i = 0; i < N; ++i) r.w[i] = a.w[i] & b.w[i];             \
    return r;                                                         \
  }                                                                   \
  inline W operator|(const W& a, const W& b) {                        \
    W r;                                                              \
    for (int i = 0; i < N; ++i) r.w[i] = a.w[i] | b.w[i];             \
    return r;                                                         \
  }                                                                   \
  inline W operator^(const W& a, const W& b) {                        \
    W r;                                                              \
    for (int i = 0; i < N; ++i) r.w[i] = a.w[i] ^ b.w[i];             \
    return r;                                                         \
  }
SILC_SIM_WORD_OPS(Word512, 8)
#undef SILC_SIM_WORD_OPS
#endif

/// Which word the tape interpreter runs over.
enum class WordKind : std::uint8_t { U64, V512 };

[[nodiscard]] constexpr int lanes_of(WordKind k) {
  switch (k) {
    case WordKind::U64: return 64;
    case WordKind::V512: return 512;
  }
  return 64;
}

/// uint64 limbs per value slot under this word.
[[nodiscard]] constexpr int words_of(WordKind k) { return lanes_of(k) / 64; }

[[nodiscard]] constexpr const char* to_string(WordKind k) {
  switch (k) {
    case WordKind::U64: return "u64";
    case WordKind::V512: return "v512";
  }
  return "?";
}

/// The widest word worth defaulting to on this build: the 512-bit vector
/// word under GCC/Clang (the compiler picks the best lowering the machine
/// has; 8 plain uint64 ops in the worst case), the portable uint64 word
/// on unknown compilers.
[[nodiscard]] constexpr WordKind widest_word() {
#if defined(SILC_SIM_VECTOR_EXT)
  return WordKind::V512;
#else
  return WordKind::U64;
#endif
}

}  // namespace silc::sim
