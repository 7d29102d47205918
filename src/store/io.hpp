// rperf::store's file layer: thin POSIX wrappers with injectable I/O
// faults beneath the record framing.
//
// Every byte the profile store persists goes through AppendFile, and
// AppendFile consults the process-wide fault injector before each write
// and fsync (kinds shortwrite/enospc/fsyncfail/tornseg, target class
// "journal" or "segment"). That puts the failure surface *below* the
// store's framing and barriers — exactly where a real disk tears — so
// the recovery contract ("reopen yields the committed prefix,
// bit-identically, tail quarantined") is provable from the fault
// grammar instead of from luck.
//
// Failures throw IoError. The store layer above latches itself failed
// on the first IoError: a file whose tail state is unknown must not be
// appended to again until recovery rescans it.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rperf::store {

/// Thrown on any I/O failure (real errno or injected fault).
class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only file handle. `target_class` ("journal", "segment", or the
/// suite checkpoint's "progress") is the name the I/O fault grammar
/// matches against ('*' matches all).
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile() { close_quiet(); }
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;
  AppendFile(AppendFile&& other) noexcept { *this = std::move(other); }
  AppendFile& operator=(AppendFile&& other) noexcept {
    if (this != &other) {
      close_quiet();
      fd_ = other.fd_;
      path_ = std::move(other.path_);
      target_class_ = std::move(other.target_class_);
      other.fd_ = -1;
    }
    return *this;
  }

  /// Open (creating if needed) for appending; throws IoError.
  void open(const std::string& path, const std::string& target_class);
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Append `n` bytes. Injected faults may persist a prefix (shortwrite),
  /// nothing (enospc), or a corrupted prefix (tornseg) before throwing.
  void append(const void* data, std::size_t n);
  /// Durability barrier (fsync). The fsyncfail fault throws *after* the
  /// data reached the page cache but without the barrier — the caller
  /// must not acknowledge a commit it could not fence.
  void sync();
  /// Truncate to `size` bytes and fsync (recovery path; not injectable —
  /// recovery must always be able to make progress).
  void truncate(std::uint64_t size);
  [[nodiscard]] std::uint64_t size() const;
  void close();  ///< throws IoError on close failure

 private:
  void close_quiet() noexcept;
  int fd_ = -1;
  std::string path_;
  std::string target_class_;
};

/// Read-only memory map of a whole file. The view is valid for the
/// lifetime of the object; readers decode records directly from it
/// (zero copy — no read()+copy of segments that a query only needs a
/// few frames of). An empty file maps to an empty view.
class MappedFile {
 public:
  MappedFile() = default;
  explicit MappedFile(const std::string& path) { map(path); }
  ~MappedFile() { unmap(); }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept {
    if (this != &other) {
      unmap();
      base_ = other.base_;
      size_ = other.size_;
      path_ = std::move(other.path_);
      other.base_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }

  /// Map `path` read-only; throws IoError when it cannot be opened or
  /// mapped. Replaces any previous mapping.
  void map(const std::string& path);
  void unmap() noexcept;
  [[nodiscard]] bool is_mapped() const { return base_ != nullptr; }
  [[nodiscard]] std::string_view view() const {
    return base_ == nullptr
               ? std::string_view{}
               : std::string_view{static_cast<const char*>(base_), size_};
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void* base_ = nullptr;
  std::size_t size_ = 0;
  std::string path_;
};

/// fsync(2) barriers the calling thread has issued through this layer:
/// AppendFile::sync and truncate, fsync_dir, and the fsyncs inside
/// atomic_rename and atomic_write_file. A caller counts its own barriers
/// as the difference across its calls.
[[nodiscard]] std::uint64_t thread_barriers();

/// fsync a directory so a rename/create inside it is durable.
void fsync_dir(const std::string& dir);

/// rename(2) `from` over `to`, then fsync the containing directory —
/// the atomic-publish step for segment sealing and checkpoint files.
void atomic_rename(const std::string& from, const std::string& to);

/// Whole-file read; throws IoError when unreadable.
[[nodiscard]] std::string read_file(const std::string& path);

/// Crash-atomic whole-file replace: write `content` to `path`.tmp,
/// fsync, rename over `path`, fsync the directory. A crash at any point
/// leaves either the old or the new file, never a torn mix.
void atomic_write_file(const std::string& path, const std::string& content);

}  // namespace rperf::store
