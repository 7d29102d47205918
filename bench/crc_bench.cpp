// Micro-benchmark for the CRC-32 every frame, store record and manifest
// carries: the dispatched util::crc32 (the path that ships), the
// slice-by-8 table path and the byte-at-a-time reference, over a 1 MiB
// buffer.
//
// Prints which path util::crc32 takes on this host and each throughput,
// and exits nonzero if the three disagree, if slice-by-8 fails to beat
// the reference by at least 1.2x (a deliberately loose floor: the win is
// typically 3-5x, but this also runs on loaded single-core CI machines),
// or, when util::crc32 takes the carry-less fold, if it fails to beat
// slice-by-8 by at least 2x (it typically reads 5-10x).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "util/crc32.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double bench(std::uint32_t (*fn)(const void*, std::size_t),
             const std::string& buf, int reps, std::uint32_t* out) {
  // One warm-up pass populates the tables and the cache.
  std::uint32_t acc = fn(buf.data(), buf.size());
  const auto start = Clock::now();
  for (int i = 0; i < reps; ++i) {
    acc ^= fn(buf.data(), buf.size());
  }
  const double sec = std::chrono::duration<double>(Clock::now() - start).count();
  *out = acc;
  return sec;
}

}  // namespace

int main() {
  namespace util = rperf::util;
  constexpr std::size_t kBytes = 1u << 20;  // 1 MiB
  constexpr int kReps = 64;
  std::string buf(kBytes, '\0');
  std::uint64_t seed = 0x243F6A8885A308D3ull;  // deterministic fill
  for (std::size_t i = 0; i < kBytes; ++i) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    buf[i] = static_cast<char>(seed >> 56);
  }

  const std::uint32_t want = util::crc32_bytewise(buf.data(), buf.size());
  if (util::crc32(buf.data(), buf.size()) != want ||
      util::crc32_slice8(buf.data(), buf.size()) != want) {
    std::fprintf(stderr, "FAIL: a fast path disagrees with the reference\n");
    return 1;
  }

  std::uint32_t acc_d = 0;
  std::uint32_t acc8 = 0;
  std::uint32_t acc1 = 0;
  const double dispatched_sec = bench(&util::crc32, buf, kReps, &acc_d);
  const double slice8_sec = bench(&util::crc32_slice8, buf, kReps, &acc8);
  const double bytewise_sec = bench(&util::crc32_bytewise, buf, kReps, &acc1);
  if (acc_d != acc1 || acc8 != acc1) {
    std::fprintf(stderr, "FAIL: accumulated checksums diverged\n");
    return 1;
  }

  const bool clmul = util::crc32_clmul_available();
  const double mib = static_cast<double>(kReps);
  const double speedup = bytewise_sec / slice8_sec;
  const double dispatched_speedup = slice8_sec / dispatched_sec;
  std::printf("crc32 over %d x 1 MiB:\n", kReps);
  std::printf("  util::crc32 path: %s\n",
              clmul ? "carry-less fold (PCLMULQDQ)"
                    : "slice-by-8 (no PCLMULQDQ)");
  std::printf("  util::crc32: %8.2f MiB/s (%.4f s, %.2fx slice-by-8)\n",
              mib / dispatched_sec, dispatched_sec, dispatched_speedup);
  std::printf("  slice-by-8:  %8.2f MiB/s (%.4f s, %.2fx bytewise)\n",
              mib / slice8_sec, slice8_sec, speedup);
  std::printf("  bytewise:    %8.2f MiB/s (%.4f s)\n", mib / bytewise_sec,
              bytewise_sec);
  if (speedup < 1.2) {
    std::fprintf(stderr, "FAIL: slice-by-8 speedup %.2fx below the 1.2x "
                         "floor\n", speedup);
    return 1;
  }
  if (clmul && dispatched_speedup < 2.0) {
    std::fprintf(stderr, "FAIL: the carry-less fold runs %.2fx slice-by-8, "
                         "below the 2x floor\n", dispatched_speedup);
    return 1;
  }
  return 0;
}
