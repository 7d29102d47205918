#include "store/store.hpp"

#include <sys/file.h>
#include <sys/stat.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "faults/injector.hpp"
#include "instrument/wire_codec.hpp"
#include "sandbox/wire.hpp"
#include "store/index.hpp"
#include "store/scan.hpp"
#include "util/crc32.hpp"
#include "util/fnv1a.hpp"

namespace rperf::store {

namespace fs = std::filesystem;

namespace {

// Flip one bit at `at` in `path` — simulated media damage.
void scribble_at(const std::string& path, std::uint64_t at) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return;
  char b = 0;
  if (::pread(fd, &b, 1, static_cast<off_t>(at)) == 1) {
    b ^= 0x40;
    (void)::pwrite(fd, &b, 1, static_cast<off_t>(at));
  }
  ::close(fd);
}

// The tornseg@segment fault: flip a bit in the middle of the records of
// a sealed file (damage to committed data, which must read as
// beyond-repair corruption — unlike the fail-open idxcorrupt fault,
// which damages the manifest).
void scribble_records(const std::string& path, std::uint64_t records_end) {
  if (records_end > kHeaderBytes) {
    scribble_at(path, kHeaderBytes + (records_end - kHeaderBytes) / 2);
  }
}

/// Adds the barriers (thread_barriers) the calling thread issues during
/// its lifetime to `total`.
class BarrierTally {
 public:
  explicit BarrierTally(std::size_t& total)
      : total_(total), start_(thread_barriers()) {}
  ~BarrierTally() { total_ += thread_barriers() - start_; }
  BarrierTally(const BarrierTally&) = delete;
  BarrierTally& operator=(const BarrierTally&) = delete;

 private:
  std::size_t& total_;
  std::uint64_t start_;
};

/// Preserve `tail` under DIR/quarantine/tail-NNNN.bin (never dropped).
std::string quarantine_tail(const std::string& dir, const std::string& tail) {
  const std::string qdir = dir + "/quarantine";
  fs::create_directories(qdir);
  unsigned next = 0;
  for (const auto& entry : fs::directory_iterator(qdir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("tail-", 0) == 0) {
      next = std::max(next,
                      static_cast<unsigned>(
                          std::strtoul(name.c_str() + 5, nullptr, 10)) + 1);
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "tail-%04u.bin", next);
  const std::string path = qdir + "/" + buf;
  atomic_write_file(path, tail);
  return path;
}

/// The manifest entry for a segment of `size` bytes whose records
/// scanned to `rec`.
ManifestSegment manifest_entry(const std::string& name, std::uint64_t size,
                               const RecordsScan& rec) {
  ManifestSegment seg;
  seg.name = name;
  seg.file_size = size;
  seg.last_seq = rec.committed_seq;
  // Sized by the cell count, one name per cell, as every manifest was:
  // `kernels` keeps a name once per run of equal names, and sizing by it
  // would change the filter's bits and the manifest's bytes.
  std::size_t cell_count = 0;
  for (const auto& ri : rec.index) cell_count += ri.entry.cells;
  seg.kernels = BloomFilter::sized_for(cell_count);
  for (const auto& ri : rec.index) {
    seg.runs.push_back(ri.entry);
    for (const auto& k : ri.kernels) seg.kernels.add(k);
  }
  return seg;
}

/// The catalog of every clean sealed segment in `scan`, in ledger order.
Manifest manifest_from_scan(const LedgerScan& scan) {
  Manifest m;
  for (const SegmentScan& seg : scan.segments) {
    if (seg.data_clean) {
      m.segments.push_back(manifest_entry(seg.name, seg.size, seg.rec));
    }
  }
  return m;
}

/// How DIR/MANIFEST.rps differs from `want`, one sentence per finding;
/// empty when it matches. A missing file matches an empty catalog.
std::vector<std::string> manifest_drift(const std::string& dir,
                                        const Manifest& want) {
  if (!fs::exists(dir + "/" + kManifestName)) {
    if (want.segments.empty()) return {};
    return {"manifest missing (queries decode every segment in full)"};
  }
  std::string why;
  const std::optional<Manifest> have = load_manifest(dir, &why);
  if (!have) {
    return {"unreadable manifest (" + why +
            "; queries decode every segment in full)"};
  }
  if (have->segments == want.segments) return {};
  std::vector<std::string> drift;
  for (const auto& seg : want.segments) {
    const ManifestSegment* listed = have->segment(seg.name);
    if (listed == nullptr) {
      drift.push_back("manifest does not list " + seg.name);
    } else if (*listed != seg) {
      drift.push_back("stale manifest entry: " + seg.name);
    }
  }
  for (const auto& seg : have->segments) {
    if (want.segment(seg.name) == nullptr) {
      drift.push_back("manifest lists " + seg.name +
                      ", which is not a clean sealed segment");
    }
  }
  return drift;
}

}  // namespace

// ---------------------------------------------------------------------------
// Encoding

std::string run_config_id(const std::map<std::string, std::string>& config) {
  std::uint64_t h = util::kFnv1a64Offset;
  for (const auto& [key, value] : config) {
    h = util::fnv1a64(key, h);
    h = util::fnv1a64("=", h);
    h = util::fnv1a64(value, h);
    h = util::fnv1a64("\n", h);
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf, 16);
}

std::string encode_record(RecordType type, std::uint64_t seq,
                          const std::string& payload) {
  std::string body;
  body.reserve(kMinBody + payload.size());
  char tmp[8];
  std::memcpy(tmp, &seq, 8);
  body.append(tmp, 8);
  body.push_back(static_cast<char>(type));
  body += payload;
  const auto len = static_cast<std::uint32_t>(body.size());
  const std::uint32_t crc = util::crc32(body.data(), body.size());
  std::string frame;
  frame.reserve(kFrameBytes + body.size());
  std::uint32_t magic = kRecordMagic;
  std::memcpy(tmp, &magic, 4);
  frame.append(tmp, 4);
  std::memcpy(tmp, &len, 4);
  frame.append(tmp, 4);
  std::memcpy(tmp, &crc, 4);
  frame.append(tmp, 4);
  frame += body;
  return frame;
}

std::string encode_cell_payload(const CellRecord& c) {
  wire::Writer w;
  w.put_bytes(c.kernel);
  w.put_bytes(c.variant);
  w.put_bytes(c.tuning);
  w.put_bytes(c.status);
  w.put_f64(c.time_per_rep_sec);
  w.put_f80(c.checksum);
  w.put_i64(c.problem_size);
  w.put_i64(c.reps);
  w.put_u32(c.attempts);
  w.put_bytes(c.error);
  return w.take();
}

CellRecord decode_cell_payload(std::string_view payload) {
  wire::Reader r(payload.data(), payload.size());
  CellRecord c;
  c.kernel = r.get_bytes();
  c.variant = r.get_bytes();
  c.tuning = r.get_bytes();
  c.status = r.get_bytes();
  c.time_per_rep_sec = r.get_f64();
  c.checksum = r.get_f80();
  c.problem_size = r.get_i64();
  c.reps = r.get_i64();
  c.attempts = r.get_u32();
  c.error = r.get_bytes();
  return c;
}

std::string encode_counter_payload(const CounterRecord& c) {
  wire::Writer w;
  w.put_bytes(c.kernel);
  w.put_bytes(c.variant);
  w.put_bytes(c.tuning);
  w.put_bytes(c.source);
  w.put_u64(c.time_enabled_ns);
  w.put_u64(c.time_running_ns);
  w.put_f64(c.overhead_sec);
  w.put_u32(static_cast<std::uint32_t>(c.values.size()));
  for (const auto& [name, value] : c.values) {
    w.put_bytes(name);
    w.put_f64(value);
  }
  return w.take();
}

CounterRecord decode_counter_payload(std::string_view payload) {
  wire::Reader r(payload.data(), payload.size());
  CounterRecord c;
  c.kernel = r.get_bytes();
  c.variant = r.get_bytes();
  c.tuning = r.get_bytes();
  c.source = r.get_bytes();
  c.time_enabled_ns = r.get_u64();
  c.time_running_ns = r.get_u64();
  c.overhead_sec = r.get_f64();
  const std::uint32_t n = r.get_u32();
  r.check_count(n, 12);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string name = r.get_bytes();
    c.values[name] = r.get_f64();
  }
  return c;
}

// ---------------------------------------------------------------------------
// StoreWriter

StoreWriter::StoreWriter(std::string dir, WriterOptions opt)
    : dir_(std::move(dir)), opt_(opt) {
  if (opt_.sync_every_commits == 0) opt_.sync_every_commits = 1;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw StoreError("store: cannot create '" + dir_ + "': " + ec.message());
  }
  // Single writer per store, enforced by flock so the lock evaporates
  // with the process — a SIGKILLed writer never wedges the store.
  const std::string lock_path = dir_ + "/store.lock";
  lock_fd_ = ::open(lock_path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (lock_fd_ < 0) {
    throw StoreError("store: cannot open lock '" + lock_path + "'");
  }
  if (::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
    ::close(lock_fd_);
    lock_fd_ = -1;
    throw StoreError("store: another writer holds '" + lock_path + "'");
  }
  try {
    recover_journal();
  } catch (...) {
    ::close(lock_fd_);
    lock_fd_ = -1;
    throw;
  }
}

void StoreWriter::recover_journal() {
  const BarrierTally tally(barriers_);
  // Sealed segments at catalog depth: every frame, CRC, sequence, marker
  // and run-id check, but no payload decode past a cell's kernel name —
  // the catalog needs no more, and readers still decode in full. The
  // journal, which is truncated to its committed end below, is scanned
  // in full so that end is the one every reader computes.
  const LedgerScan scan = scan_ledger(dir_, 0, ScanDepth::Catalog);
  if (!scan.damaged.empty()) {
    throw CorruptError("store: sealed segment damage in '" + dir_ + "' (" +
                       joined_problems(scan.segment_problems) +
                       ") — run rperf-report --store with --fsck --repair");
  }
  next_segment_ = scan.segments.empty() ? 0 : scan.max_segment_index + 1;
  next_seq_ = scan.final_committed_seq + 1;

  // The writer owns the manifest: build it from this scan and rewrite the
  // file only when the one on disk differs (missing, garbled or stale).
  // The file on disk is never trusted in place of the scan: a lying entry
  // or a bloom filter missing a kernel would otherwise survive every open.
  // A failed rewrite costs queries speed only, and every seal saves the
  // whole catalog again.
  manifest_ = manifest_from_scan(scan);
  if (!manifest_drift(dir_, manifest_).empty()) {
    try {
      save_manifest(dir_, manifest_);
    } catch (const IoError&) {
    }
  }

  const std::string journal_path = dir_ + "/journal.rps";
  const std::uint64_t tail = scan.tail_bytes();
  if (tail > 0) {
    // Quarantine before truncating: the torn tail is preserved evidence,
    // never silently dropped.
    const std::string data = read_file(journal_path);
    recovery_.quarantine_file =
        quarantine_tail(dir_, data.substr(scan.journal_committed_end));
    recovery_.quarantined_bytes = tail;
  }
  try {
    journal_.open(journal_path, "journal");
    if (tail > 0) journal_.truncate(scan.journal_committed_end);
    if (journal_.size() < kHeaderBytes) {
      if (journal_.size() != 0) journal_.truncate(0);
      journal_.append(kFileMagic, kHeaderBytes);
      journal_.sync();
      fsync_dir(dir_);
    }
  } catch (const IoError& e) {
    failed_ = true;
    throw StoreError(e.what());
  }
}

StoreWriter::~StoreWriter() {
  // An unfinished run stays as committed-cells-without-final-marker
  // (an incomplete run on reopen) — exactly the kill semantics.
  if (lock_fd_ >= 0) ::close(lock_fd_);
}

void StoreWriter::append_record(RecordType type, const std::string& payload) {
  if (failed_) {
    throw StoreError("store: writer latched failed after an I/O error");
  }
  const std::string frame = encode_record(type, next_seq_, payload);
  try {
    journal_.append(frame.data(), frame.size());
  } catch (const IoError& e) {
    failed_ = true;
    throw StoreError(e.what());
  }
  if (type != RecordType::CommitMarker) last_data_seq_ = next_seq_;
  ++next_seq_;
}

void StoreWriter::barrier() {
  const BarrierTally tally(barriers_);
  try {
    journal_.sync();
  } catch (const IoError& e) {
    failed_ = true;
    throw StoreError(e.what());
  }
  commits_since_sync_ = 0;
}

std::string StoreWriter::begin_run(
    const std::map<std::string, std::string>& config) {
  if (!run_id_.empty()) {
    throw StoreError("store: begin_run with run '" + run_id_ +
                     "' still open");
  }
  const std::string id = run_config_id(config);
  wire::Writer w;
  w.put_bytes(id);
  w.put_u32(static_cast<std::uint32_t>(config.size()));
  for (const auto& [key, value] : config) {
    w.put_bytes(key);
    w.put_bytes(value);
  }
  append_record(RecordType::RunHeader, w.take());
  run_id_ = id;
  cells_pending_ = 0;
  commit();  // the run exists even if no cell ever lands
  return id;
}

void StoreWriter::add_cell(const CellRecord& cell) {
  if (run_id_.empty()) throw StoreError("store: add_cell outside a run");
  append_record(RecordType::CellResult, encode_cell_payload(cell));
  ++cells_pending_;
}

void StoreWriter::add_counters(const CounterRecord& counters) {
  if (run_id_.empty()) throw StoreError("store: add_counters outside a run");
  append_record(RecordType::CounterSet, encode_counter_payload(counters));
}

void StoreWriter::add_profile(const std::string& variant,
                              const std::string& tuning,
                              const cali::Profile& profile) {
  if (run_id_.empty()) throw StoreError("store: add_profile outside a run");
  wire::Writer w;
  w.put_bytes(variant);
  w.put_bytes(tuning);
  cali::profile_to_wire(profile, w);
  append_record(RecordType::ProfileRegion, w.take());
}

void StoreWriter::add_trace_summary(
    const std::map<std::string, double>& summary) {
  if (run_id_.empty()) {
    throw StoreError("store: add_trace_summary outside a run");
  }
  wire::Writer w;
  w.put_u32(static_cast<std::uint32_t>(summary.size()));
  for (const auto& [key, value] : summary) {
    w.put_bytes(key);
    w.put_f64(value);
  }
  append_record(RecordType::TraceSummary, w.take());
}

void StoreWriter::commit() {
  if (run_id_.empty()) throw StoreError("store: commit outside a run");
  wire::Writer w;
  w.put_u64(next_seq_ - 1);  // covers: the immediately preceding record
  w.put_u8(0);
  w.put_bytes(run_id_);
  append_record(RecordType::CommitMarker, w.take());
  cells_committed_ += cells_pending_;
  cells_pending_ = 0;
  // Group commit: the marker is consistency, the fsync is durability.
  // Recovery validates markers against their covered records, so a
  // power cut between barriers can only lose the undurable window —
  // never resurrect a marker over torn data.
  if (++commits_since_sync_ >= opt_.sync_every_commits) barrier();
}

void StoreWriter::finish_run() {
  if (run_id_.empty()) throw StoreError("store: finish_run outside a run");
  barrier();  // fence the run's data before declaring it final
  wire::Writer w;
  w.put_u64(next_seq_ - 1);
  w.put_u8(1);
  w.put_bytes(run_id_);
  append_record(RecordType::CommitMarker, w.take());
  cells_committed_ += cells_pending_;
  cells_pending_ = 0;
  barrier();
  run_id_.clear();
  seal();
}

void StoreWriter::seal() {
  // The journal is durable (finish_run's barrier); publish it as an
  // immutable segment: rename + directory fsync, manifest update, then
  // start fresh. This publication path is the 'segment' class of the I/O
  // fault grammar: enospc/shortwrite fail it before the rename (the run
  // stays in the journal), fsyncfail fails the rename's directory barrier,
  // tornseg scribbles a byte inside the freshly sealed records — simulated
  // media damage to an immutable segment — and idxcorrupt (class 'index')
  // scribbles the saved manifest instead, which readers must survive.
  const BarrierTally tally(barriers_);
  const std::string name = segment_name(next_segment_);
  SealInfo info;
  info.segment = name;
  std::optional<ManifestSegment> entry;
  auto& inj = faults::injector();
  try {
    if (inj.fire_io_fault(faults::FaultKind::Enospc, "segment") ||
        inj.fire_io_fault(faults::FaultKind::ShortWrite, "segment")) {
      throw IoError("store: injected failure publishing " + name);
    }
    const std::uint64_t records_end = journal_.size();
    // Build the manifest entry by re-scanning the just-fsynced journal
    // at the catalog depth writer open uses, so the entry is the one the
    // next open rebuilds from the sealed segment. The index is fail-open:
    // on any failure here the segment seals unlisted, queries decode it
    // in full, and the next writer open lists it.
    try {
      const std::string data = read_file(journal_.path());
      const RecordsScan rec = scan_records(data, kHeaderBytes, data.size(),
                                           0, name, ScanDepth::Catalog);
      if (rec.clean) {
        entry = manifest_entry(name, data.size(), rec);
      } else {
        info.index_error = "journal not clean at seal: " + rec.why;
      }
    } catch (const std::exception& e) {
      info.index_error = e.what();
    }
    journal_.close();
    atomic_rename(dir_ + "/journal.rps", dir_ + "/" + name);
    ++next_segment_;
    if (inj.fire_io_fault(faults::FaultKind::FsyncFail, "segment")) {
      throw IoError("store: injected fsync failure publishing " + name);
    }
    if (inj.fire_io_fault(faults::FaultKind::TornSeg, "segment")) {
      scribble_records(dir_ + "/" + name, records_end);
      throw IoError("store: injected media damage in " + name);
    }
    if (entry) {
      info.runs_indexed = entry->runs.size();
      manifest_.segments.push_back(std::move(*entry));
      publish_manifest(info);
    }
    journal_.open(dir_ + "/journal.rps", "journal");
    journal_.append(kFileMagic, kHeaderBytes);
    journal_.sync();
  } catch (const IoError& e) {
    failed_ = true;
    throw StoreError(e.what());
  }
  seal_info_ = std::move(info);
}

void StoreWriter::publish_manifest(SealInfo& info) {
  // The manifest is a pure cache, so nothing here may fail the seal: an
  // error is recorded in `info` and the next seal (or writer open) saves
  // the catalog again.
  const std::string path = dir_ + "/" + kManifestName;
  try {
    save_manifest(dir_, manifest_);
  } catch (const IoError& e) {
    info.index_error = std::string("manifest update failed: ") + e.what();
    return;
  }
  if (faults::injector().fire_io_fault(faults::FaultKind::IndexCorrupt,
                                       "index")) {
    // Damage the saved manifest so queries must demonstrate the fail-open
    // fallback. The records are untouched: the seal still succeeds and
    // nothing may report an error beyond a warning.
    std::error_code ec;
    const std::uint64_t size = fs::file_size(path, ec);
    if (!ec) scribble_at(path, size / 2);
    info.index_error = "injected index corruption in " + path;
    return;
  }
  info.manifest_ok = true;
  for (const auto& seg : manifest_.segments) {
    info.manifest_runs += seg.runs.size();
  }
}

// ---------------------------------------------------------------------------
// StoreReader

StoreReader::StoreReader(const std::string& dir, unsigned threads) {
  LedgerScan scan = scan_ledger(dir, threads);
  if (!scan.any_files) {
    throw StoreError("store: no profile store at '" + dir + "'");
  }
  if (!scan.damaged.empty()) {
    throw CorruptError("store: sealed segment damage in '" + dir + "' (" +
                       joined_problems(scan.segment_problems) + ")");
  }
  runs_ = std::move(scan.runs);
  tail_bytes_ = scan.tail_bytes();
  segments_ = scan.segments.size();
}

const StoredRun* StoreReader::find(const std::string& prefix) const {
  for (auto it = runs_.rbegin(); it != runs_.rend(); ++it) {
    if (prefix.empty() || it->run_id.rfind(prefix, 0) == 0) return &*it;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// fsck

FsckReport fsck(const std::string& dir, bool repair, unsigned threads) {
  const LedgerScan scan = scan_ledger(dir, threads);
  if (!scan.any_files) {
    throw StoreError("store: no profile store at '" + dir + "'");
  }
  FsckReport report;
  report.segments = scan.segments.size();
  report.runs = scan.runs.size();
  report.committed_cells = scan.committed_cells;
  for (const auto& run : scan.runs) {
    if (run.complete) ++report.complete_runs;
  }
  report.tail_bytes = scan.tail_bytes();

  // The manifest is a pure cache: drift from the catalog this scan
  // builds is a note, never a status change.
  const Manifest catalog = manifest_from_scan(scan);
  const std::vector<std::string> drift = manifest_drift(dir, catalog);
  report.notes.insert(report.notes.end(), drift.begin(), drift.end());

  if (!scan.damaged.empty()) {
    report.status = FsckStatus::Corrupt;
    for (const auto& problem : scan.segment_problems) {
      report.notes.push_back("corrupt sealed segment: " + problem);
    }
  } else if (report.tail_bytes > 0) {
    report.status = FsckStatus::Recoverable;
    report.notes.push_back(
        "torn journal tail: " + std::to_string(report.tail_bytes) +
        " uncommitted byte(s)" +
        (scan.journal_why.empty() ? "" : " (" + scan.journal_why + ")"));
  }

  if (repair && (report.status != FsckStatus::Clean || !drift.empty())) {
    // Refuse to repair under a live writer: take the same flock.
    const std::string lock_path = dir + "/store.lock";
    const int lock_fd =
        ::open(lock_path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (lock_fd < 0 || ::flock(lock_fd, LOCK_EX | LOCK_NB) != 0) {
      if (lock_fd >= 0) ::close(lock_fd);
      throw StoreError("store: cannot repair '" + dir +
                       "': a writer holds the lock");
    }
    for (const std::size_t i : scan.damaged) {
      const std::string seg_path = dir + "/" + scan.segments[i].name;
      const std::string dest =
          dir + "/quarantine/" + scan.segments[i].name;
      fs::create_directories(dir + "/quarantine");
      atomic_rename(seg_path, dest);
      report.notes.push_back("quarantined damaged segment -> " + dest);
      report.repaired = true;
    }
    if (report.tail_bytes > 0) {
      const std::string journal_path = dir + "/journal.rps";
      const std::string data = read_file(journal_path);
      const std::string qpath =
          quarantine_tail(dir, data.substr(scan.journal_committed_end));
      AppendFile journal;
      journal.open(journal_path, "journal");
      journal.truncate(scan.journal_committed_end);
      journal.close();
      report.notes.push_back("quarantined torn journal tail -> " + qpath);
      report.repaired = true;
    }
    if (!drift.empty()) {
      // The catalog lists exactly the surviving (clean) segments.
      try {
        save_manifest(dir, catalog);
        report.notes.push_back("rewrote manifest (" +
                               std::to_string(catalog.segments.size()) +
                               " segment(s))");
        report.repaired = true;
      } catch (const IoError& e) {
        report.notes.push_back(std::string("manifest rewrite failed: ") +
                               e.what());
      }
    }
    ::close(lock_fd);
  }
  return report;
}

}  // namespace rperf::store
