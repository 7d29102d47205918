#include "store/io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "faults/injector.hpp"

namespace rperf::store {

namespace {

[[noreturn]] void throw_errno(const std::string& op, const std::string& path) {
  throw IoError("store: " + op + " '" + path + "': " + std::strerror(errno));
}

thread_local std::uint64_t t_barriers = 0;

/// fsync(2), counted: every durability barrier of this layer goes here.
int counted_fsync(int fd) {
  ++t_barriers;
  return ::fsync(fd);
}

/// Write exactly `n` bytes at the current offset, retrying partial
/// writes and EINTR (a genuine short write from the kernel is not an
/// error, just a resumption point — only injected shortwrites stop).
void write_all(int fd, const char* data, std::size_t n,
               const std::string& path) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t rc = ::write(fd, data + done, n - done);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("write", path);
    }
    done += static_cast<std::size_t>(rc);
  }
}

}  // namespace

void AppendFile::open(const std::string& path,
                      const std::string& target_class) {
  close_quiet();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) throw_errno("open", path);
  path_ = path;
  target_class_ = target_class;
}

void AppendFile::append(const void* data, std::size_t n) {
  if (fd_ < 0) throw IoError("store: append on closed file");
  auto& inj = faults::injector();
  if (inj.fire_io_fault(faults::FaultKind::Enospc, target_class_)) {
    throw IoError("store: injected enospc on '" + path_ + "'");
  }
  const char* bytes = static_cast<const char*>(data);
  if (inj.fire_io_fault(faults::FaultKind::ShortWrite, target_class_)) {
    // Persist only a prefix — the classic torn append.
    write_all(fd_, bytes, n / 2, path_);
    throw IoError("store: injected shortwrite on '" + path_ + "' (" +
                  std::to_string(n / 2) + "/" + std::to_string(n) + " bytes)");
  }
  if (inj.fire_io_fault(faults::FaultKind::TornSeg, target_class_) && n > 0) {
    // Persist a prefix with one byte scribbled: a torn, damaged sector.
    std::string torn(bytes, n - n / 4);
    if (!torn.empty()) torn[torn.size() / 2] ^= 0x40;
    write_all(fd_, torn.data(), torn.size(), path_);
    throw IoError("store: injected tornseg on '" + path_ + "'");
  }
  write_all(fd_, bytes, n, path_);
}

void AppendFile::sync() {
  if (fd_ < 0) throw IoError("store: sync on closed file");
  if (faults::injector().fire_io_fault(faults::FaultKind::FsyncFail,
                                       target_class_)) {
    throw IoError("store: injected fsyncfail on '" + path_ + "'");
  }
  if (counted_fsync(fd_) != 0) throw_errno("fsync", path_);
}

void AppendFile::truncate(std::uint64_t size) {
  if (fd_ < 0) throw IoError("store: truncate on closed file");
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    throw_errno("ftruncate", path_);
  }
  if (counted_fsync(fd_) != 0) throw_errno("fsync", path_);
}

std::uint64_t AppendFile::size() const {
  if (fd_ < 0) throw IoError("store: size on closed file");
  struct stat st {};
  if (::fstat(fd_, &st) != 0) throw_errno("fstat", path_);
  return static_cast<std::uint64_t>(st.st_size);
}

void AppendFile::close() {
  if (fd_ < 0) return;
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) throw_errno("close", path_);
}

void AppendFile::close_quiet() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void MappedFile::map(const std::string& path) {
  unmap();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_errno("open", path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw_errno("fstat", path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* base = nullptr;
  if (size > 0) {
    base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base == MAP_FAILED) {
      ::close(fd);
      throw_errno("mmap", path);
    }
  }
  ::close(fd);  // the mapping outlives the descriptor
  base_ = base;
  size_ = size;
  path_ = path;
}

void MappedFile::unmap() noexcept {
  if (base_ != nullptr) {
    ::munmap(base_, size_);
    base_ = nullptr;
  }
  size_ = 0;
}

std::uint64_t thread_barriers() { return t_barriers; }

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw_errno("open dir", dir);
  const int rc = counted_fsync(fd);
  ::close(fd);
  if (rc != 0) throw_errno("fsync dir", dir);
}

void atomic_rename(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) throw_errno("rename", from);
  const std::size_t slash = to.find_last_of('/');
  fsync_dir(slash == std::string::npos ? "." : to.substr(0, slash));
}

std::string read_file(const std::string& path) {
  std::string out;
  read_file_into(path, out);
  return out;
}

void read_file_into(const std::string& path, std::string& buf) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_errno("open", path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw_errno("fstat", path);
  }
  // Growing zero-fills only the bytes past the buffer's current size;
  // every byte up to st_size is then overwritten by the reads.
  buf.resize(static_cast<std::size_t>(st.st_size));
  std::size_t done = 0;
  while (done < buf.size()) {
    const ssize_t rc = ::pread(fd, buf.data() + done, buf.size() - done,
                               static_cast<off_t>(done));
    if (rc < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_errno("read", path);
    }
    if (rc == 0) break;  // the file shrank since fstat
    done += static_cast<std::size_t>(rc);
  }
  buf.resize(done);
  ::close(fd);
}

void atomic_write_file(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("open", tmp);
  try {
    write_all(fd, content.data(), content.size(), tmp);
    if (counted_fsync(fd) != 0) throw_errno("fsync", tmp);
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (::close(fd) != 0) throw_errno("close", tmp);
  atomic_rename(tmp, path);
}

}  // namespace rperf::store
