#include "store/index.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "sandbox/wire.hpp"
#include "store/io.hpp"
#include "util/crc32.hpp"
#include "util/fnv1a.hpp"

namespace rperf::store {

namespace {

std::uint32_t load_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

void append_u32(std::string& out, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out.append(b, 4);
}

void put_run_entry(wire::Writer& w, const RunEntry& run) {
  w.put_bytes(run.run_id);
  w.put_u64(run.first_offset);
  w.put_u64(run.min_seq);
  w.put_u64(run.max_seq);
  w.put_u32(run.cells);
  w.put_u32(run.profiles);
  w.put_u32(run.summaries);
  w.put_u8(run.complete ? 1 : 0);
}

RunEntry get_run_entry(wire::Reader& r) {
  RunEntry run;
  run.run_id = r.get_bytes();
  run.first_offset = r.get_u64();
  run.min_seq = r.get_u64();
  run.max_seq = r.get_u64();
  run.cells = r.get_u32();
  run.profiles = r.get_u32();
  run.summaries = r.get_u32();
  run.complete = r.get_u8() != 0;
  return run;
}

void put_bloom(wire::Writer& w, const BloomFilter& bloom) {
  w.put_u32(bloom.hashes);
  w.put_bytes(bloom.bits);
}

BloomFilter get_bloom(wire::Reader& r) {
  BloomFilter bloom;
  bloom.hashes = r.get_u32();
  bloom.bits = r.get_bytes();
  // A usable filter has a power-of-two bit array and sane probe count;
  // anything else behaves as "maybe" for every key (no false negatives).
  const std::size_t m = bloom.bits.size();
  if (bloom.hashes == 0 || bloom.hashes > 16 ||
      (m != 0 && (m & (m - 1)) != 0)) {
    bloom.bits.clear();
  }
  return bloom;
}

}  // namespace

// ---------------------------------------------------------------------------
// Bloom filter

BloomFilter BloomFilter::sized_for(std::size_t elements) {
  BloomFilter bloom;
  std::size_t bits_wanted = elements * 10;
  std::size_t m = 64;
  while (m < bits_wanted) m <<= 1;
  bloom.bits.assign(m / 8, '\0');
  return bloom;
}

void BloomFilter::add(std::string_view key) {
  if (bits.empty()) return;
  const std::uint64_t h = util::fnv1a64(key);
  const std::uint64_t m = bits.size() * 8;
  std::uint64_t h1 = h & 0xFFFFFFFFu;
  const std::uint64_t h2 = (h >> 32) | 1u;  // odd stride
  for (std::uint32_t i = 0; i < hashes; ++i) {
    const std::uint64_t bit = h1 & (m - 1);
    bits[bit >> 3] |= static_cast<char>(1u << (bit & 7));
    h1 += h2;
  }
}

bool BloomFilter::maybe_contains(std::string_view key) const {
  if (bits.empty()) return true;  // unusable filter: never exclude
  const std::uint64_t h = util::fnv1a64(key);
  const std::uint64_t m = bits.size() * 8;
  std::uint64_t h1 = h & 0xFFFFFFFFu;
  const std::uint64_t h2 = (h >> 32) | 1u;
  for (std::uint32_t i = 0; i < hashes; ++i) {
    const std::uint64_t bit = h1 & (m - 1);
    if ((bits[bit >> 3] & static_cast<char>(1u << (bit & 7))) == 0) {
      return false;
    }
    h1 += h2;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Manifest

const ManifestSegment* Manifest::segment(const std::string& name) const {
  const auto it = std::lower_bound(
      segments.begin(), segments.end(), name,
      [](const ManifestSegment& seg, const std::string& key) {
        return seg.name < key;
      });
  return it != segments.end() && it->name == name ? &*it : nullptr;
}

std::string encode_manifest(const Manifest& manifest) {
  wire::Writer w;
  w.put_u32(manifest.version);
  w.put_u32(static_cast<std::uint32_t>(manifest.segments.size()));
  for (const auto& seg : manifest.segments) {
    w.put_bytes(seg.name);
    w.put_u64(seg.file_size);
    w.put_u64(seg.last_seq);
    w.put_u32(static_cast<std::uint32_t>(seg.runs.size()));
    for (const auto& run : seg.runs) put_run_entry(w, run);
    put_bloom(w, seg.kernels);
  }
  const std::string payload = w.take();
  std::string out;
  out.reserve(sizeof(kManifestMagic) + payload.size() + 4);
  out.append(kManifestMagic, sizeof(kManifestMagic));
  out += payload;
  append_u32(out, util::crc32(payload.data(), payload.size()));
  return out;
}

std::optional<Manifest> decode_manifest(std::string_view data,
                                        std::string* why) {
  auto fail = [why](const std::string& what) -> std::optional<Manifest> {
    if (why != nullptr) *why = what;
    return std::nullopt;
  };
  if (data.size() < sizeof(kManifestMagic) + 4 ||
      std::memcmp(data.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return fail("bad manifest header");
  }
  const std::string_view payload =
      data.substr(sizeof(kManifestMagic), data.size() -
                                              sizeof(kManifestMagic) - 4);
  const std::uint32_t stored_crc =
      load_u32(data.data() + data.size() - 4);
  if (util::crc32(payload.data(), payload.size()) != stored_crc) {
    return fail("manifest crc mismatch");
  }
  try {
    wire::Reader r(payload.data(), payload.size());
    Manifest m;
    m.version = r.get_u32();
    if (m.version != kManifestVersion) {
      return fail("unsupported manifest version " +
                  std::to_string(m.version));
    }
    const std::uint32_t nseg = r.get_u32();
    r.check_count(nseg, 16);
    m.segments.reserve(nseg);
    for (std::uint32_t i = 0; i < nseg; ++i) {
      ManifestSegment seg;
      seg.name = r.get_bytes();
      seg.file_size = r.get_u64();
      seg.last_seq = r.get_u64();
      const std::uint32_t nrun = r.get_u32();
      r.check_count(nrun, 16);
      seg.runs.reserve(nrun);
      for (std::uint32_t j = 0; j < nrun; ++j) {
        seg.runs.push_back(get_run_entry(r));
      }
      seg.kernels = get_bloom(r);
      if (!m.segments.empty() && !(m.segments.back().name < seg.name)) {
        return fail("manifest segments out of order at " + seg.name);
      }
      m.segments.push_back(std::move(seg));
    }
    return m;
  } catch (const std::exception& e) {
    return fail(std::string("manifest decode failed: ") + e.what());
  }
}

std::optional<Manifest> load_manifest(const std::string& dir,
                                      std::string* why) {
  const std::string path = dir + "/" + kManifestName;
  if (!std::filesystem::exists(path)) {
    if (why != nullptr) *why = "no manifest";
    return std::nullopt;
  }
  std::string data;
  try {
    data = read_file(path);
  } catch (const IoError& e) {
    if (why != nullptr) *why = e.what();
    return std::nullopt;
  }
  return decode_manifest(data, why);
}

void save_manifest(const std::string& dir, const Manifest& manifest) {
  atomic_write_file(dir + "/" + kManifestName, encode_manifest(manifest));
}

}  // namespace rperf::store
