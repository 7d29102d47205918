// MANIFEST.rps: the profile store's query index.
//
// One store-level catalog of every sealed segment: per segment its file
// size and last committed seq (for staleness detection), a run
// directory (RunEntry: where each run's records start, its seq range and
// record counts) and a bloom filter over the kernel names of its
// committed cells:
//
//   manifest := "RPSMANI1" payload u32 crc32(payload)
//
// The writer owns it. At open it rebuilds the catalog from a catalog-
// depth scan of every sealed segment (store/scan.hpp: every frame, CRC,
// sequence, marker and run-id check; only headers, markers and cell
// kernel names decoded) and rewrites the file only when the one on disk
// differs (missing, garbled or stale); the file on disk is never taken
// in place of that scan. At each seal it appends the new segment's
// entry, built by re-scanning the just-fsynced journal at the same
// depth, so the entry is the one the next open rebuilds. Every save is
// crash-atomic (tmp+fsync+rename).
//
// The manifest is a pure cache: queries decode any segment it does not
// list, or lists with a stale size, in full (a warning, never an error),
// and point lookups verify an entry's claims against the records they
// decode. Record damage stays fail-closed (CorruptError).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rperf::store {

inline constexpr char kManifestMagic[8] = {'R', 'P', 'S', 'M',
                                           'A', 'N', 'I', '1'};
inline constexpr std::uint32_t kManifestVersion = 1;
inline constexpr char kManifestName[] = "MANIFEST.rps";

/// Bloom filter over kernel names: double hashing off FNV-1a-64, k
/// probes into a power-of-two bit array. No false negatives, so a
/// kernel-filtered query may skip any segment whose filter says "absent"
/// and still see every matching cell; a false positive only costs one
/// wasted segment scan.
struct BloomFilter {
  std::uint32_t hashes = 4;
  std::string bits;  ///< bit array, size is a power of two

  /// Sized for ~10 bits/element (min 64 bits), k = 4.
  [[nodiscard]] static BloomFilter sized_for(std::size_t elements);
  void add(std::string_view key);
  [[nodiscard]] bool maybe_contains(std::string_view key) const;
  bool operator==(const BloomFilter&) const = default;
};

/// One run's directory entry: everything a point lookup needs to seek
/// straight to the run's records and to verify it got the right bytes.
struct RunEntry {
  std::string run_id;             ///< 16-hex content address
  std::uint64_t first_offset = 0; ///< file offset of the RunHeader frame
  std::uint64_t min_seq = 0;      ///< seq of the RunHeader record
  std::uint64_t max_seq = 0;      ///< seq of the run's last committed marker
  std::uint32_t cells = 0;
  std::uint32_t profiles = 0;
  std::uint32_t summaries = 0;
  bool complete = false;
  bool operator==(const RunEntry&) const = default;
};

struct ManifestSegment {
  std::string name;               ///< e.g. "seg-000001.rps"
  std::uint64_t file_size = 0;    ///< staleness check against the dir
  std::uint64_t last_seq = 0;     ///< last committed seq in the segment
  std::vector<RunEntry> runs;     ///< in append order
  BloomFilter kernels;            ///< over every committed cell's kernel
  bool operator==(const ManifestSegment&) const = default;
};

struct Manifest {
  std::uint32_t version = kManifestVersion;
  /// Ledger order: strictly increasing names (decode_manifest rejects a
  /// manifest in any other order).
  std::vector<ManifestSegment> segments;

  /// The entry named `name`, or nullptr; a binary search by name.
  [[nodiscard]] const ManifestSegment* segment(const std::string& name) const;
};

[[nodiscard]] std::string encode_manifest(const Manifest& manifest);
/// Decode a manifest image; nullopt (with `why`) on any damage,
/// segments out of name order included.
[[nodiscard]] std::optional<Manifest> decode_manifest(std::string_view data,
                                                      std::string* why);
/// Load DIR/MANIFEST.rps; nullopt (with `why`) when missing/undecodable.
[[nodiscard]] std::optional<Manifest> load_manifest(const std::string& dir,
                                                    std::string* why);
/// Crash-atomically replace DIR/MANIFEST.rps. Throws IoError.
void save_manifest(const std::string& dir, const Manifest& manifest);

}  // namespace rperf::store
