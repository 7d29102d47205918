// The pipe protocol between the worker pool's supervisor and its workers
// (sandbox/pool.hpp).
//
// Every record travels as a length-framed, CRC32-checked binary frame:
//
//   [u32 magic][u32 payload length][u32 crc32(payload)][payload bytes]
//
// all little-endian. Framing exists because a worker that keeps running
// after scribbling a torn or corrupted record would silently poison every
// later cell. A bad magic, an implausible length, or a CRC mismatch is
// detected at the frame boundary; the supervisor treats the worker as
// compromised, kills it, and retries the in-flight cell on a fresh worker
// instead of mis-parsing.
//
// A frame payload is "<header line>\n<body>". Headers are space-separated
// words: "hello <version> <pid>", "job <id>", "result <id>", "final",
// "drain", "bye". Job, result and final bodies are opaque to
// the pool; the executor fills them with rperf::wire records
// (sandbox/wire.hpp): the dispatched cell, the cell's result with its
// profile and post-job injector state, and the worker's trace chunk. Bump
// kProtocolVersion whenever a record's schema changes incompatibly.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/crc32.hpp"

namespace rperf::sandbox {

/// Version of the pool protocol carried in "hello" frames.
inline constexpr int kProtocolVersion = 5;

/// Exit code a worker uses for "memory exhausted": either the injector's
/// oom fault hit its allocation cap, or std::bad_alloc escaped the cell
/// runner (e.g. RLIMIT_AS). Chosen outside the 0-63 range tools use.
inline constexpr int kOomExitCode = 86;

/// Leading magic word of every frame ("RPF2" little-endian). A frame that
/// does not start with it means the stream lost sync — fail closed.
inline constexpr std::uint32_t kFrameMagic = 0x32465052u;

/// Upper bound on a single frame's payload (64 MiB). Real records are a
/// few KiB (cell results with embedded profiles top out well below 1 MiB);
/// a length beyond this is corruption, not data.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// Encode one frame around `payload`. With `corrupt_crc` the stored
/// checksum is deliberately flipped — used only by the protocol-corrupt
/// fault to prove the receiver detects a bad frame instead of parsing it.
[[nodiscard]] inline std::string frame_encode(const std::string& payload,
                                              bool corrupt_crc = false) {
  std::string out;
  out.reserve(12 + payload.size());
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::uint32_t crc = util::crc32(payload.data(), payload.size());
  if (corrupt_crc) crc ^= 0xA5A5A5A5u;
  auto put = [&out](std::uint32_t v) {
    char b[4];
    std::memcpy(b, &v, 4);  // little-endian hosts only (as is the repo)
    out.append(b, 4);
  };
  put(kFrameMagic);
  put(len);
  put(crc);
  out += payload;
  return out;
}

/// Incremental frame decoder: feed() raw bytes, next() pops payloads.
/// Once a structural violation is seen (bad magic, oversize length, CRC
/// mismatch) the reader latches Corrupt — a stream that lost sync cannot
/// be trusted again, so there is deliberately no resync path.
class FrameReader {
 public:
  enum class Status { NeedMore, Frame, Corrupt };

  void feed(const char* data, std::size_t n) { buf_.append(data, n); }

  /// Pop the next complete frame's payload into `payload`.
  [[nodiscard]] Status next(std::string& payload) {
    if (corrupt_) return Status::Corrupt;
    if (buf_.size() < 12) return Status::NeedMore;
    std::uint32_t magic = 0;
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    std::memcpy(&magic, buf_.data(), 4);
    std::memcpy(&len, buf_.data() + 4, 4);
    std::memcpy(&crc, buf_.data() + 8, 4);
    if (magic != kFrameMagic || len > kMaxFramePayload) {
      corrupt_ = true;
      return Status::Corrupt;
    }
    if (buf_.size() < 12 + static_cast<std::size_t>(len)) {
      return Status::NeedMore;
    }
    if (util::crc32(buf_.data() + 12, len) != crc) {
      corrupt_ = true;
      return Status::Corrupt;
    }
    payload.assign(buf_.data() + 12, len);
    buf_.erase(0, 12 + static_cast<std::size_t>(len));
    return Status::Frame;
  }

  [[nodiscard]] bool corrupt() const { return corrupt_; }

 private:
  std::string buf_;
  bool corrupt_ = false;
};

/// Exact long-double round-trip for checksums written as JSON text
/// (progress.jsonl): JSON numbers are doubles, so records carry a C99
/// hexfloat string too.
[[nodiscard]] inline std::string checksum_to_hex(long double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%La", v);
  return buf;
}

[[nodiscard]] inline long double checksum_from_hex(const std::string& s) {
  return std::strtold(s.c_str(), nullptr);
}

}  // namespace rperf::sandbox
