// FNV-1a, 64-bit, shared by every layer that needs a stable string hash:
// the executor's dispatch-affinity keys (suite/executor.cpp), the profile
// store's content-addressed run ids (store/store.cpp, run_config_id) and
// its per-segment bloom filters (store/index.cpp).
//
// Run ids and bloom bits are written to disk, so the constants below are
// part of the store format and must never change.
#pragma once

#include <cstdint>
#include <string_view>

namespace rperf::util {

inline constexpr std::uint64_t kFnv1a64Offset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv1a64Prime = 1099511628211ull;

/// Fold `s` into the running hash `h`; start from kFnv1a64Offset (the
/// default) to hash one string, or chain calls to hash a concatenation.
[[nodiscard]] inline std::uint64_t fnv1a64(
    std::string_view s, std::uint64_t h = kFnv1a64Offset) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1a64Prime;
  }
  return h;
}

}  // namespace rperf::util
