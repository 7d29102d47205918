// rperf::wire — the binary record codec of the v5 pool protocol and of the
// profile store's payloads.
//
// Modeled on Caliper's snapshot design: everything that crosses the
// worker->supervisor boundary or lands in a store segment is fixed-width
// typed fields — i64 / f64 / raw long-double checksum bits / string refs
// — instead of printf'd and re-parsed JSON text.
//
// Every blob carries its own strings. The first use of a string in a blob
// writes an inline definition (kInlineDef + length + bytes) that the
// decoder appends to a blob-local table; later uses in the same blob are
// high-bit refs into that table. The table dies with the blob, so any
// process decodes any blob — decode order, worker identity, retries and
// the process that wrote a segment don't matter.
//
// Every get_* bounds-checks and throws wire::Error on violation: a
// corrupted blob fails decode loudly instead of yielding garbage.
//
// Blobs start with [kBlobMagic][kBlobVersion]; Reader::expect_blob
// rejects anything else.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace rperf::wire {

/// First byte of every wire blob. 0xB3 cannot begin a JSON document.
inline constexpr unsigned char kBlobMagic = 0xB3;
/// Schema version of the records that follow.
inline constexpr unsigned char kBlobVersion = 1;

/// String-ref encodings (u32): kInlineDef introduces an inline
/// definition; high-bit values reference the blob-local table built from
/// those definitions. Any other value is corruption.
inline constexpr std::uint32_t kInlineDef = 0xFFFFFFFFu;
inline constexpr std::uint32_t kLocalBit = 0x80000000u;

/// Thrown on any structural violation during decode.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Fixed-width little-endian encoder appending to an owned buffer.
class Writer {
 public:
  void put_u8(std::uint8_t v) { raw(&v, 1); }
  void put_u32(std::uint32_t v) { raw(&v, 4); }
  void put_u64(std::uint64_t v) { raw(&v, 8); }
  void put_i64(std::int64_t v) { raw(&v, 8); }
  void put_f64(double v) { raw(&v, 8); }

  /// Raw bit-pattern of a long double (x86: 80-bit extended in 16 bytes,
  /// padding included) — the checksum path's exact round-trip, with no
  /// hexfloat printf/strtold in the loop.
  void put_f80(long double v) {
    put_u8(static_cast<std::uint8_t>(sizeof(long double)));
    raw(&v, sizeof(long double));
  }

  /// Length-prefixed uninterned bytes (high-entropy payloads: injector
  /// state, error text, metadata values).
  void put_bytes(const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  /// Interned string ref: an inline definition on first use in this
  /// blob, a blob-local ref after.
  void put_str(const std::string& s) {
    const auto it = local_ids_.find(s);
    if (it != local_ids_.end()) {
      put_u32(kLocalBit | it->second);
      return;
    }
    const auto lid = static_cast<std::uint32_t>(local_ids_.size());
    local_ids_.emplace(s, lid);
    put_u32(kInlineDef);
    put_bytes(s);
  }

  [[nodiscard]] const std::string& buffer() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

  /// Start a blob: magic + version header.
  void begin_blob() {
    put_u8(kBlobMagic);
    put_u8(kBlobVersion);
  }

  /// No-op: every blob is self-contained. Kept only because the
  /// end-to-end benchmark (bench/e2e) still calls it.
  void set_self_contained(bool) {}

 private:
  void raw(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
  std::map<std::string, std::uint32_t> local_ids_;
};

/// Bounds-checked decoder over a borrowed buffer.
class Reader {
 public:
  Reader(const char* data, std::size_t n) : p_(data), end_(data + n) {}
  explicit Reader(const std::string& s) : Reader(s.data(), s.size()) {}

  std::uint8_t get_u8() { return get<std::uint8_t>(); }
  std::uint32_t get_u32() { return get<std::uint32_t>(); }
  std::uint64_t get_u64() { return get<std::uint64_t>(); }
  std::int64_t get_i64() { return get<std::int64_t>(); }
  double get_f64() { return get<double>(); }

  long double get_f80() {
    const std::uint8_t n = get_u8();
    if (n != sizeof(long double)) {
      throw Error("wire: long double width mismatch");
    }
    long double v;
    need(sizeof(v));
    std::memcpy(&v, p_, sizeof(v));
    p_ += sizeof(v);
    return v;
  }

  std::string get_bytes() {
    const std::uint32_t n = get_u32();
    need(n);
    std::string out(p_, n);
    p_ += n;
    return out;
  }

  std::string get_str() {
    const std::uint32_t v = get_u32();
    if (v == kInlineDef) {
      locals_.push_back(get_bytes());
      return locals_.back();
    }
    const std::uint32_t idx = v & ~kLocalBit;
    if ((v & kLocalBit) == 0 || idx >= locals_.size()) {
      throw Error("wire: string ref " + std::to_string(v) +
                  " names no definition in this blob");
    }
    return locals_[idx];
  }

  /// Consume and validate the blob header.
  void expect_blob() {
    if (get_u8() != kBlobMagic || get_u8() != kBlobVersion) {
      throw Error("wire: bad blob magic/version");
    }
  }

  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }

  /// Guard for counted loops: a claimed element count whose minimum
  /// encoding exceeds the bytes left is corruption, not data.
  void check_count(std::uint64_t count, std::size_t min_bytes_each) const {
    if (min_bytes_each != 0 && count > remaining() / min_bytes_each) {
      throw Error("wire: element count exceeds payload");
    }
  }

 private:
  template <typename T>
  T get() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    return v;
  }
  void need(std::size_t n) const {
    if (static_cast<std::size_t>(end_ - p_) < n) {
      throw Error("wire: truncated blob");
    }
  }
  const char* p_;
  const char* end_;
  std::vector<std::string> locals_;
};

}  // namespace rperf::wire
