#include "store/scan.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "instrument/wire_codec.hpp"
#include "sandbox/wire.hpp"
#include "store/io.hpp"
#include "util/crc32.hpp"

namespace rperf::store {

namespace fs = std::filesystem;

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

// Segments sealed by builds that appended a per-segment footer end in
//   "RPIX" u32 body_len body u32 crc32 u32 total_len u64 "1RPSIDX1"
// right after their last commit marker. Nothing reads those bytes; the
// sealed-segment scan only recognises them so such segments stay
// readable.
constexpr std::uint32_t kLegacyFooterMagic = 0x58495052u;  // "RPIX"
constexpr std::uint64_t kLegacyFooterEndMagic =
    0x3158444953505231ull;  // "1RPSIDX1"
/// The fixed fields alone: magic, body_len, crc32, total_len, end magic.
constexpr std::size_t kLegacyFooterMinBytes = 24;

/// True when a sealed segment's records stop, all committed, at a legacy
/// footer that runs to EOF.
bool ends_in_legacy_footer(std::string_view data, const RecordsScan& rec) {
  const std::size_t pos = rec.stop_pos;
  return pos == rec.committed_end &&
         data.size() - pos >= kLegacyFooterMinBytes &&
         load_u32(data.data() + pos) == kLegacyFooterMagic &&
         load_u64(data.data() + data.size() - 8) == kLegacyFooterEndMagic;
}

/// Records parked since the last commit marker that land in one run
/// once a valid marker commits them: the run a parked RunHeader opens,
/// or the run already open. `info` holds the entry fields, counts and
/// cell kernel names; `run` gains decoded records at full depth only.
struct ParkedRun {
  RunIndexInfo info;
  StoredRun run;
};

struct ScanState {
  ScanDepth depth = ScanDepth::Full;
  std::vector<StoredRun> runs;      ///< full depth only, parallel to index
  std::vector<RunIndexInfo> index;
  ParkedRun open_tail;              ///< parked records of the open run
  std::vector<ParkedRun> new_runs;  ///< parked RunHeaders, with their records
  std::size_t parked = 0;           ///< records parked since the last marker
  int open_run = -1;                ///< index into `index`, -1 = none open
  std::uint64_t last_seq = 0;       ///< seq of last structurally valid record
  std::uint64_t committed_seq = 0;  ///< seq of last *applied* marker
};

/// Run id the next marker must name: a parked header wins over the
/// open committed run.
const std::string* current_run_id(const ScanState& st) {
  if (!st.new_runs.empty()) return &st.new_runs.back().info.entry.run_id;
  if (st.open_run >= 0) return &st.index[st.open_run].entry.run_id;
  return nullptr;
}

/// Commit the open run's parked records into it and empty `open_tail`
/// (keeping its capacity: most markers commit a single cell).
void commit_open_tail(ScanState& st) {
  ParkedRun& tail = st.open_tail;
  RunIndexInfo& info = st.index[st.open_run];
  info.entry.cells += tail.info.entry.cells;
  info.entry.profiles += tail.info.entry.profiles;
  info.entry.summaries += tail.info.entry.summaries;
  for (auto& k : tail.info.kernels) info.kernels.push_back(std::move(k));
  if (st.depth == ScanDepth::Full) {
    StoredRun& run = st.runs[st.open_run];
    for (auto& c : tail.run.cells) run.cells.push_back(std::move(c));
    for (auto& p : tail.run.profiles) run.profiles.push_back(std::move(p));
    for (auto& c : tail.run.counters) run.counters.push_back(std::move(c));
    if (tail.info.entry.summaries != 0) {
      run.trace_summary = std::move(tail.run.trace_summary);
    }
    tail.run.cells.clear();
    tail.run.profiles.clear();
    tail.run.counters.clear();
  }
  tail.info.kernels.clear();
  tail.info.entry.cells = 0;
  tail.info.entry.profiles = 0;
  tail.info.entry.summaries = 0;
}

/// Check one record body and park it, or apply a marker. Returns false
/// (with `why`) when the record is invalid — the scan stops there, fail
/// closed. Catalog depth skips the payload decode of every data record
/// but a cell's kernel name (see scan.hpp).
bool consume_record(ScanState& st, RecordType type, std::string_view payload,
                    std::uint64_t seq, std::uint64_t offset,
                    const std::string& file, std::string& why) {
  const bool full = st.depth == ScanDepth::Full;
  try {
    switch (type) {
      case RecordType::RunHeader: {
        wire::Reader r(payload.data(), payload.size());
        ParkedRun parked;
        StoredRun& run = parked.run;
        run.run_id = r.get_bytes();
        const std::uint32_t n = r.get_u32();
        r.check_count(n, 8);
        for (std::uint32_t i = 0; i < n; ++i) {
          const std::string key = r.get_bytes();
          run.config[key] = r.get_bytes();
        }
        if (run.run_id != run_config_id(run.config)) {
          why = "run id does not match its config hash";
          return false;
        }
        run.file = file;
        parked.info.entry.run_id = run.run_id;
        parked.info.entry.first_offset = offset;
        parked.info.entry.min_seq = seq;
        st.new_runs.push_back(std::move(parked));
        ++st.parked;
        return true;
      }
      case RecordType::CellResult:
      case RecordType::ProfileRegion:
      case RecordType::CounterSet:
      case RecordType::TraceSummary: {
        if (current_run_id(st) == nullptr) {
          why = "data record outside any run";
          return false;
        }
        ParkedRun& to = st.new_runs.empty() ? st.open_tail : st.new_runs.back();
        if (type == RecordType::CellResult) {
          ++to.info.entry.cells;
          if (full) {
            to.run.cells.push_back(decode_cell_payload(payload));
            to.info.kernels.push_back(to.run.cells.back().kernel);
          } else {
            wire::Reader r(payload.data(), payload.size());
            to.info.kernels.push_back(r.get_bytes());
          }
        } else if (type == RecordType::ProfileRegion) {
          ++to.info.entry.profiles;
          if (full) {
            wire::Reader r(payload.data(), payload.size());
            StoredProfile p;
            p.variant = r.get_bytes();
            p.tuning = r.get_bytes();
            p.profile = cali::profile_from_wire(r);
            to.run.profiles.push_back(std::move(p));
          }
        } else if (type == RecordType::CounterSet) {
          // Deliberately not indexed: the manifest entry layout predates
          // counter records and stays fixed; queries reach counters
          // through their run.
          if (full) to.run.counters.push_back(decode_counter_payload(payload));
        } else {
          ++to.info.entry.summaries;
          if (full) {
            wire::Reader r(payload.data(), payload.size());
            std::map<std::string, double> summary;
            const std::uint32_t n = r.get_u32();
            r.check_count(n, 12);
            for (std::uint32_t i = 0; i < n; ++i) {
              const std::string key = r.get_bytes();
              summary[key] = r.get_f64();
            }
            to.run.trace_summary = std::move(summary);
          }
        }
        ++st.parked;
        return true;
      }
      case RecordType::CommitMarker: {
        wire::Reader r(payload.data(), payload.size());
        const std::uint64_t covers = r.get_u64();
        const bool final_marker = r.get_u8() != 0;
        const std::string marker_run = r.get_bytes();
        // A marker commits nothing unless it provably belongs exactly
        // here: it must cover its immediate predecessor and name the
        // run that is actually open. A stale or relocated marker (torn
        // write, replayed bytes) fails one of these and the scan stops
        // — fail closed, the tail is quarantined, not trusted.
        if (covers + 1 != seq) {
          why = "commit marker covers_seq does not match its predecessor";
          return false;
        }
        const std::string* open_id = current_run_id(st);
        if (open_id == nullptr || *open_id != marker_run) {
          why = "commit marker names a run that is not open";
          return false;
        }
        // Parked records land in append order: the open run's first,
        // then each parked header opens the next run.
        if (st.open_run >= 0) commit_open_tail(st);
        for (auto& parked : st.new_runs) {
          st.index.push_back(std::move(parked.info));
          if (full) st.runs.push_back(std::move(parked.run));
          st.open_run = static_cast<int>(st.index.size()) - 1;
        }
        st.new_runs.clear();
        st.parked = 0;
        if (st.open_run >= 0) {
          st.index[st.open_run].entry.max_seq = seq;
          if (final_marker) {
            st.index[st.open_run].entry.complete = true;
            if (full) st.runs[st.open_run].complete = true;
            st.open_run = -1;
          }
        }
        st.committed_seq = seq;
        return true;
      }
    }
  } catch (const std::exception& e) {
    why = std::string("payload decode failed: ") + e.what();
    return false;
  }
  why = "unknown record type " +
        std::to_string(static_cast<unsigned>(type));
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Records region scan

RecordsScan scan_records(std::string_view data, std::size_t begin,
                         std::size_t end, std::uint64_t prev_seq,
                         const std::string& file, ScanDepth depth,
                         std::uint64_t stop_after_seq) {
  RecordsScan out;
  ScanState st;
  st.depth = depth;
  st.last_seq = prev_seq;
  out.committed_end = begin;
  std::size_t pos = begin;
  bool first = true;
  bool stopped_at_target = false;
  while (pos < end) {
    if (end - pos < kFrameBytes) {
      out.why = "truncated frame header";
      break;
    }
    if (load_u32(data.data() + pos) != kRecordMagic) {
      out.why = "bad record magic";
      break;
    }
    const std::uint32_t len = load_u32(data.data() + pos + 4);
    if (len < kMinBody || len > kMaxRecordBody) {
      out.why = "implausible record length";
      break;
    }
    if (end - pos - kFrameBytes < len) {
      out.why = "truncated record body";
      break;
    }
    const char* body = data.data() + pos + kFrameBytes;
    if (util::crc32(body, len) != load_u32(data.data() + pos + 8)) {
      out.why = "record crc mismatch";
      break;
    }
    const std::uint64_t seq = load_u64(body);
    // Within a file seqs step by exactly 1; across files they may only
    // jump forward (lets fsck drop a quarantined segment without
    // invalidating its successors). Duplicate or regressing seqs are
    // corruption even when the CRC checks out (replayed bytes).
    if (first ? seq <= prev_seq : seq != st.last_seq + 1) {
      out.why = "sequence violation";
      break;
    }
    const auto type = static_cast<RecordType>(
        static_cast<unsigned char>(body[8]));
    const std::string_view payload(body + kMinBody, len - kMinBody);
    std::string why;
    if (!consume_record(st, type, payload, seq, pos, file, why)) {
      out.why = why;
      break;
    }
    if (first) out.first_seq = seq;
    st.last_seq = seq;
    first = false;
    pos += kFrameBytes + len;
    if (type == RecordType::CommitMarker) {
      out.committed_end = pos;
      if (stop_after_seq != 0 && seq == stop_after_seq) {
        stopped_at_target = true;
        break;
      }
    }
  }
  out.stop_pos = pos;
  if (out.why.empty() && !stopped_at_target &&
      (out.committed_end != end || st.parked != 0)) {
    out.why = "uncommitted trailing records";
  }
  out.clean = out.why.empty();
  out.committed_seq = st.committed_seq;
  for (const auto& info : st.index) out.committed_cells += info.entry.cells;
  out.runs = std::move(st.runs);
  out.index = std::move(st.index);
  return out;
}

// ---------------------------------------------------------------------------
// Whole-file scans

SegmentScan scan_segment_image(std::string_view data, const std::string& name,
                               ScanDepth depth) {
  SegmentScan seg;
  seg.name = name;
  seg.size = data.size();
  if (data.size() < kHeaderBytes ||
      std::memcmp(data.data(), kFileMagic, kHeaderBytes) != 0) {
    seg.problem = name + ": bad file header";
    return seg;
  }
  seg.rec = scan_records(data, kHeaderBytes, data.size(), 0, name, depth);
  if (!seg.rec.clean && ends_in_legacy_footer(data, seg.rec)) {
    seg.rec.clean = true;
    seg.rec.why.clear();
  }
  seg.data_clean = seg.rec.clean;
  if (!seg.data_clean) seg.problem = name + ": " + seg.rec.why;
  return seg;
}

RecordsScan scan_journal_image(std::string_view data,
                               std::uint64_t prev_seq) {
  if (data.size() < kHeaderBytes ||
      std::memcmp(data.data(), kFileMagic, kHeaderBytes) != 0) {
    RecordsScan out;
    out.why = "bad file header";
    return out;
  }
  return scan_records(data, kHeaderBytes, data.size(), prev_seq,
                      "journal.rps");
}

// ---------------------------------------------------------------------------
// Ledger scan (parallel over segments)

unsigned scan_threads(unsigned requested, std::size_t files) {
  if (files <= 1) return 1;
  unsigned t = requested;
  if (t == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    t = std::min(4u, hw == 0 ? 1u : hw);
  }
  return static_cast<unsigned>(
      std::min<std::size_t>(t == 0 ? 1 : t, files));
}

std::string segment_name(std::uint64_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06llu.rps",
                static_cast<unsigned long long>(index));
  return name;
}

std::vector<std::string> list_segments(const std::string& dir) {
  std::vector<std::string> names;
  if (fs::is_directory(dir)) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      std::string name = entry.path().filename().string();
      if (name.rfind("seg-", 0) == 0 && name.size() > 8 &&
          name.substr(name.size() - 4) == ".rps") {
        names.push_back(std::move(name));
      }
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string joined_problems(const std::vector<std::string>& problems) {
  std::string out;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (i) out += "; ";
    out += problems[i];
  }
  return out;
}

LedgerScan scan_ledger(const std::string& dir, unsigned threads,
                       ScanDepth depth) {
  LedgerScan out;
  const std::vector<std::string> names = list_segments(dir);
  for (const std::string& name : names) {
    const std::uint64_t idx = std::strtoull(name.c_str() + 4, nullptr, 10);
    out.max_segment_index = std::max(out.max_segment_index, idx);
  }
  out.segments.resize(names.size());

  // Each worker reads its segments into one buffer it reuses; every
  // decoded field is copied out, so nothing points into the buffer.
  auto scan_one = [&](std::size_t i, std::string& buf) {
    const std::string& name = names[i];
    try {
      read_file_into((fs::path(dir) / name).string(), buf);
      out.segments[i] = scan_segment_image(buf, name, depth);
    } catch (const std::exception& e) {
      out.segments[i].name = name;
      out.segments[i].problem = name + ": " + e.what();
      out.segments[i].data_clean = false;
    }
  };
  const unsigned workers = scan_threads(threads, names.size());
  if (workers <= 1) {
    std::string buf;
    for (std::size_t i = 0; i < names.size(); ++i) scan_one(i, buf);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        std::string buf;
        for (std::size_t i = next.fetch_add(1); i < names.size();
             i = next.fetch_add(1)) {
          scan_one(i, buf);
        }
      });
    }
    for (auto& th : pool) th.join();
  }

  // Deterministic join in ledger order: re-apply the cross-file sequence
  // rule the sequential scan enforced at each file boundary. A segment
  // whose first seq does not move forward is damaged and contributes
  // nothing (its bytes replay earlier history); any other segment —
  // including a damaged one — contributes its committed prefix.
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < out.segments.size(); ++i) {
    SegmentScan& seg = out.segments[i];
    out.any_files = true;
    if (seg.rec.first_seq != 0 && seg.rec.first_seq <= prev) {
      seg.data_clean = false;
      seg.problem = seg.name + ": sequence violation";
      out.damaged.push_back(i);
      out.segment_problems.push_back(seg.problem);
      continue;
    }
    if (!seg.data_clean) {
      out.damaged.push_back(i);
      out.segment_problems.push_back(seg.problem);
    }
    for (auto& run : seg.rec.runs) out.runs.push_back(std::move(run));
    seg.rec.runs.clear();  // joined view owns them now (index stays)
    out.committed_cells += seg.rec.committed_cells;
    if (seg.rec.committed_seq != 0) prev = seg.rec.committed_seq;
  }

  const std::string journal = dir + "/journal.rps";
  if (fs::exists(journal)) {
    out.any_files = true;
    out.journal_exists = true;
    const std::string data = read_file(journal);
    out.journal_size = data.size();
    if (!data.empty()) {
      out.journal = scan_journal_image(data, prev);
      out.journal_committed_end = out.journal.committed_end;
      out.journal_why = out.journal.why;
      if (depth == ScanDepth::Full) {
        for (auto& run : out.journal.runs) out.runs.push_back(std::move(run));
      }
      out.journal.runs.clear();
      out.committed_cells += out.journal.committed_cells;
      if (out.journal.committed_seq != 0) prev = out.journal.committed_seq;
    }
  }
  out.final_committed_seq = prev;
  return out;
}

}  // namespace rperf::store
