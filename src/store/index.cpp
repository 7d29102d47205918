#include "store/index.hpp"

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

std::uint64_t load_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void append_u32(std::string& out, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out.append(b, 4);
}

void append_u64(std::string& out, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}

void put_footer_run(wire::Writer& w, const FooterRun& run) {
  w.put_bytes(run.run_id);
  w.put_u64(run.first_offset);
  w.put_u64(run.min_seq);
  w.put_u64(run.max_seq);
  w.put_u32(run.cells);
  w.put_u32(run.profiles);
  w.put_u32(run.summaries);
  w.put_u8(run.complete ? 1 : 0);
}

FooterRun get_footer_run(wire::Reader& r) {
  FooterRun run;
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

std::string encode_footer_body(const SegmentFooter& footer) {
  wire::Writer w;
  w.set_self_contained(true);
  w.put_u32(footer.version);
  w.put_u64(footer.records_end);
  w.put_u32(static_cast<std::uint32_t>(footer.runs.size()));
  for (const auto& run : footer.runs) put_footer_run(w, run);
  put_bloom(w, footer.kernels);
  return w.take();
}

bool decode_footer_body(std::string_view body, SegmentFooter& footer,
                        std::string& why) {
  try {
    wire::Reader r(body.data(), body.size());
    footer.version = r.get_u32();
    if (footer.version != kFooterVersion) {
      why = "unsupported footer version " + std::to_string(footer.version);
      return false;
    }
    footer.records_end = r.get_u64();
    const std::uint32_t n = r.get_u32();
    r.check_count(n, 16);
    footer.runs.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      footer.runs.push_back(get_footer_run(r));
    }
    footer.kernels = get_bloom(r);
    return true;
  } catch (const std::exception& e) {
    why = std::string("footer decode failed: ") + e.what();
    return false;
  }
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
// Footer encode / probe

std::string encode_footer(const SegmentFooter& footer) {
  const std::string body = encode_footer_body(footer);
  std::string out;
  out.reserve(kFooterHeadBytes + body.size() + kFooterTailBytes);
  append_u32(out, kFooterMagic);
  append_u32(out, static_cast<std::uint32_t>(body.size()));
  out += body;
  const std::uint32_t crc = util::crc32(out.data(), out.size());
  append_u32(out, crc);
  append_u32(out, static_cast<std::uint32_t>(
                      kFooterHeadBytes + body.size() + kFooterTailBytes));
  append_u64(out, kFooterEndMagic);
  return out;
}

namespace {

/// Decode the complete footer region [start, start+total) of `data`.
FooterProbe decode_footer_region(std::string_view data, std::size_t start,
                                 std::size_t total) {
  FooterProbe probe;
  probe.records_end = start;
  const char* p = data.data() + start;
  if (load_u32(p) != kFooterMagic) {
    probe.status = FooterProbe::Status::Unreadable;
    probe.why = "footer start magic mismatch";
    return probe;
  }
  const std::uint32_t body_len = load_u32(p + 4);
  if (body_len > kMaxFooterBody ||
      kFooterHeadBytes + body_len + kFooterTailBytes != total) {
    probe.status = FooterProbe::Status::Unreadable;
    probe.why = "footer length fields disagree";
    return probe;
  }
  const std::uint32_t stored_crc =
      load_u32(p + kFooterHeadBytes + body_len);
  if (util::crc32(p, kFooterHeadBytes + body_len) != stored_crc) {
    probe.status = FooterProbe::Status::Unreadable;
    probe.why = "footer crc mismatch";
    return probe;
  }
  SegmentFooter footer;
  std::string why;
  if (!decode_footer_body({p + kFooterHeadBytes, body_len}, footer, why)) {
    probe.status = FooterProbe::Status::Unreadable;
    probe.why = why;
    return probe;
  }
  if (footer.records_end != start) {
    probe.status = FooterProbe::Status::Unreadable;
    probe.why = "footer records_end disagrees with its position";
    return probe;
  }
  probe.status = FooterProbe::Status::Valid;
  probe.footer = std::move(footer);
  return probe;
}

}  // namespace

FooterProbe probe_footer(std::string_view data) {
  FooterProbe probe;
  probe.records_end = data.size();
  if (data.size() < kFooterHeadBytes + kFooterTailBytes) return probe;
  const char* tail = data.data() + data.size() - kFooterTailBytes;
  if (load_u64(tail + 8) != kFooterEndMagic) return probe;  // no trailer
  const std::uint32_t total = load_u32(tail + 4);
  if (total < kFooterHeadBytes + kFooterTailBytes ||
      total > data.size()) {
    probe.status = FooterProbe::Status::Unreadable;
    probe.why = "footer trailer length implausible";
    // No trustworthy start position: treat the whole file as records and
    // let the scan stop at the footer magic (classify_footer_stop).
    return probe;
  }
  const std::size_t start = data.size() - total;
  FooterProbe decoded = decode_footer_region(data, start, total);
  if (decoded.status == FooterProbe::Status::Unreadable &&
      load_u32(data.data() + start) != kFooterMagic) {
    // The trailer pointed into bytes that are not a footer at all; the
    // records region boundary is unknown, so scan everything.
    decoded.records_end = data.size();
  }
  return decoded;
}

FooterProbe classify_footer_stop(std::string_view data, std::size_t pos) {
  FooterProbe probe;
  probe.records_end = data.size();
  if (pos + 4 > data.size() ||
      load_u32(data.data() + pos) != kFooterMagic) {
    return probe;  // Absent: not a footer boundary
  }
  probe.records_end = pos;
  if (pos + kFooterHeadBytes > data.size()) {
    probe.status = FooterProbe::Status::Unreadable;
    probe.why = "truncated footer";
    return probe;
  }
  const std::uint32_t body_len = load_u32(data.data() + pos + 4);
  const std::size_t total = kFooterHeadBytes + body_len + kFooterTailBytes;
  if (body_len > kMaxFooterBody || pos + total > data.size()) {
    // The footer itself is cut short — the crash-between-append-and-
    // rename shape. Records before it are intact; the index is gone.
    probe.status = FooterProbe::Status::Unreadable;
    probe.why = "truncated footer";
    return probe;
  }
  if (pos + total < data.size()) {
    // A complete footer with bytes *behind* it: that is trailing garbage
    // appended to a sealed segment, not index damage. Signal "not a
    // footer stop" so the scan's own fail-closed verdict stands.
    probe.status = FooterProbe::Status::Absent;
    probe.records_end = data.size();
    return probe;
  }
  // Exactly footer-sized, but the EOF trailer did not validate (that is
  // how we got here): damaged trailer/end magic. Fail open.
  FooterProbe decoded = decode_footer_region(data, pos, total);
  if (decoded.status == FooterProbe::Status::Valid) {
    // Body decodes but the trailer was bad — still index damage; do not
    // trust a footer whose frame failed validation.
    decoded.status = FooterProbe::Status::Unreadable;
    decoded.why = "footer trailer damaged";
    decoded.footer = SegmentFooter{};
  }
  return decoded;
}

// ---------------------------------------------------------------------------
// Manifest

const ManifestSegment* Manifest::segment(const std::string& name) const {
  for (const auto& seg : segments) {
    if (seg.name == name) return &seg;
  }
  return nullptr;
}

std::string encode_manifest(const Manifest& manifest) {
  wire::Writer w;
  w.set_self_contained(true);
  w.put_u32(manifest.version);
  w.put_u32(static_cast<std::uint32_t>(manifest.segments.size()));
  for (const auto& seg : manifest.segments) {
    w.put_bytes(seg.name);
    w.put_u64(seg.file_size);
    w.put_u64(seg.last_seq);
    w.put_u32(static_cast<std::uint32_t>(seg.runs.size()));
    for (const auto& run : seg.runs) put_footer_run(w, run);
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
        seg.runs.push_back(get_footer_run(r));
      }
      seg.kernels = get_bloom(r);
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
