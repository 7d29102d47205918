// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) shared by every
// layer that frames bytes for integrity: the sandbox pipe protocol
// (sandbox/protocol.hpp) and the profile store's on-disk record and
// manifest framing (src/store/). One polynomial, one result — a checksum
// written by any layer verifies in any other, on any host.
//
// Entry points:
//   crc32           what every layer calls. On x86-64 hosts whose CPUID
//                   reports PCLMULQDQ (and SSE4.1) it runs crc32_clmul
//                   for inputs of 64 bytes or more; otherwise it runs
//                   crc32_slice8. The path is picked once per process,
//                   from CPUID alone.
//   crc32_clmul     folds 64-byte blocks with carry-less multiplies
//                   (Intel, "Fast CRC Computation for Generic Polynomials
//                   Using PCLMULQDQ", 2009), then the 16-byte blocks, then
//                   a Barrett reduction; the 1-15-byte tail goes through
//                   the slice-by-8 tables. Over 1 MiB it runs 8-9x
//                   slice-by-8 (bench/crc_bench.cpp). Callable only where
//                   crc32_clmul_available() (x86-64 builds declare it).
//   crc32_slice8    eight precomputed tables fold eight bytes per step.
//                   It stays because it is the only path for inputs under
//                   64 bytes (every store commit marker, for one, where
//                   the fold's setup would not pay), for the tail, and on
//                   hosts without PCLMULQDQ.
//   crc32_bytewise  the classic byte-at-a-time table walk: the independent
//                   reference both fast paths are parity-tested
//                   (tests/test_transport.cpp) and benchmarked
//                   (bench/crc_bench.cpp) against.
//
// SSE4.2's crc32 instruction is not an option: it computes CRC-32C, a
// different polynomial, which would change every stored checksum.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RPERF_CRC32_CLMUL 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define RPERF_CRC32_CLMUL 0
#endif

namespace rperf::util {

namespace detail {
/// Slice-by-8 CRC-32 tables: t[0] is the classic byte-at-a-time table,
/// t[k] advances a byte through k additional zero bytes, so eight bytes
/// fold per iteration with no inter-byte dependency chain.
struct Crc32Tables {
  std::uint32_t t[8][256];
};
[[nodiscard]] inline const Crc32Tables& crc32_tables() {
  static const auto tables = [] {
    Crc32Tables tb{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      tb.t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = tb.t[0][i];
      for (int k = 1; k < 8; ++k) {
        c = tb.t[0][c & 0xFFu] ^ (c >> 8);
        tb.t[k][i] = c;
      }
    }
    return tb;
  }();
  return tables;
}

/// Advance the CRC register `c` (pre-inverted) over `n` bytes, slice-by-8.
[[nodiscard]] inline std::uint32_t crc32_slice8_update(
    std::uint32_t c, const unsigned char* p, std::size_t n) {
  const auto& tb = crc32_tables();
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);      // little-endian hosts only (as is the repo)
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = tb.t[7][lo & 0xFFu] ^ tb.t[6][(lo >> 8) & 0xFFu] ^
        tb.t[5][(lo >> 16) & 0xFFu] ^ tb.t[4][lo >> 24] ^
        tb.t[3][hi & 0xFFu] ^ tb.t[2][(hi >> 8) & 0xFFu] ^
        tb.t[1][(hi >> 16) & 0xFFu] ^ tb.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = tb.t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if RPERF_CRC32_CLMUL
/// One fold step: `acc` carried past the next 128 bits, `acc.lo * k.lo xor
/// acc.hi * k.hi`, xor the block `next` it lands on.
[[gnu::target("pclmul")]] inline __m128i crc32_fold(__m128i acc, __m128i k,
                                                   __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x11),
                                     _mm_clmulepi64_si128(acc, k, 0x00)),
                       next);
}

inline __m128i crc32_load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Advance the CRC register `c` (pre-inverted) over `n` bytes, n >= 64 and
/// a multiple of 16, by carry-less folding (Intel 2009, bit-reflected
/// domain). Four 128-bit accumulators fold 64 bytes per step by x^512
/// (k1, k2); they fold into one by x^128 (k3, k4), which also folds the
/// remaining 16-byte blocks; 128 bits fold to 64 (k4, then k5) and a
/// Barrett reduction by P' with quotient constant mu leaves 32.
[[gnu::target("pclmul,sse4.1")]] inline std::uint32_t crc32_clmul_update(
    std::uint32_t c, const unsigned char* p, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);  // mu, P'
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(crc32_load(p),
                             _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = crc32_load(p + 16);
  __m128i x3 = crc32_load(p + 32);
  __m128i x4 = crc32_load(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    x1 = crc32_fold(x1, k1k2, crc32_load(p));
    x2 = crc32_fold(x2, k1k2, crc32_load(p + 16));
    x3 = crc32_fold(x3, k1k2, crc32_load(p + 32));
    x4 = crc32_fold(x4, k1k2, crc32_load(p + 48));
    p += 64;
    n -= 64;
  }
  x1 = crc32_fold(x1, k3k4, x2);
  x1 = crc32_fold(x1, k3k4, x3);
  x1 = crc32_fold(x1, k3k4, x4);
  while (n >= 16) {
    x1 = crc32_fold(x1, k3k4, crc32_load(p));
    p += 16;
    n -= 16;
  }

  // 128 -> 64 bits: the low half times k4, into the high half.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  // 64 -> 32 bits: the low 32 times k5, into the upper bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}
#endif
}  // namespace detail

/// Reference byte-at-a-time CRC-32 (IEEE 802.3, reflected). Kept as the
/// independent implementation both fast paths are verified and
/// micro-benchmarked against.
[[nodiscard]] inline std::uint32_t crc32_bytewise(const void* data,
                                                 std::size_t n) {
  const auto& tb = detail::crc32_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = tb.t[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

/// CRC-32 of `data` by slice-by-8 alone, on any host.
[[nodiscard]] inline std::uint32_t crc32_slice8(const void* data,
                                               std::size_t n) {
  return detail::crc32_slice8_update(
             0xFFFFFFFFu, static_cast<const unsigned char*>(data), n) ^
         0xFFFFFFFFu;
}

/// True when this process may call crc32_clmul: an x86-64 build on a CPU
/// whose CPUID reports PCLMULQDQ and SSE4.1. Read once.
[[nodiscard]] inline bool crc32_clmul_available() {
#if RPERF_CRC32_CLMUL
  static const bool available = [] {
    unsigned eax = 0;
    unsigned ebx = 0;
    unsigned ecx = 0;
    unsigned edx = 0;
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
           (ecx & bit_PCLMUL) != 0 && (ecx & bit_SSE4_1) != 0;
  }();
  return available;
#else
  return false;
#endif
}

#if RPERF_CRC32_CLMUL
/// CRC-32 of `data` by carry-less folding: the 16-byte blocks of an input
/// of 64 bytes or more fold with PCLMULQDQ, everything else goes through
/// slice-by-8. Requires crc32_clmul_available().
[[gnu::target("pclmul,sse4.1")]] [[nodiscard]] inline std::uint32_t
crc32_clmul(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  if (n >= 64) {
    const std::size_t blocks = n & ~std::size_t{15};
    c = detail::crc32_clmul_update(c, p, blocks);
    p += blocks;
    n -= blocks;
  }
  return detail::crc32_slice8_update(c, p, n) ^ 0xFFFFFFFFu;
}
#endif

/// CRC-32 (IEEE 802.3, reflected) of `data`: crc32_clmul where the CPU has
/// it and the input is 64 bytes or more, crc32_slice8 otherwise. Same
/// result as crc32_bytewise on every input and host.
[[nodiscard]] inline std::uint32_t crc32(const void* data, std::size_t n) {
#if RPERF_CRC32_CLMUL
  if (n >= 64 && crc32_clmul_available()) return crc32_clmul(data, n);
#endif
  return crc32_slice8(data, n);
}

}  // namespace rperf::util
