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

/// A decoded-but-uncommitted record, parked until a valid marker.
struct PendingOp {
  RecordType type = RecordType::RunHeader;
  std::uint64_t seq = 0;
  std::uint64_t offset = 0;  ///< frame offset in the file
  StoredRun run;             // RunHeader
  CellRecord cell;           // CellResult
  StoredProfile profile;     // ProfileRegion
  CounterRecord counters;    // CounterSet
  std::map<std::string, double> summary;  // TraceSummary
};

struct ScanState {
  std::vector<StoredRun> runs;
  std::vector<RunIndexInfo> index;  ///< parallel to runs
  std::vector<PendingOp> pending;
  int open_run = -1;                ///< index into runs, -1 = none open
  std::uint64_t last_seq = 0;       ///< seq of last structurally valid record
  std::uint64_t committed_seq = 0;  ///< seq of last *applied* marker
  std::size_t committed_cells = 0;
};

/// Run id the next marker must name: a pending header wins over the
/// open committed run.
const std::string* current_run_id(const ScanState& st) {
  for (auto it = st.pending.rbegin(); it != st.pending.rend(); ++it) {
    if (it->type == RecordType::RunHeader) return &it->run.run_id;
  }
  if (st.open_run >= 0) return &st.runs[st.open_run].run_id;
  return nullptr;
}

/// Decode one record body into the pending list / apply a marker.
/// Returns false (with `why`) when the record is invalid — the scan
/// stops there, fail closed.
bool consume_record(ScanState& st, RecordType type, std::string_view payload,
                    std::uint64_t seq, std::uint64_t offset,
                    const std::string& file, std::string& why) {
  try {
    switch (type) {
      case RecordType::RunHeader: {
        wire::Reader r(payload.data(), payload.size());
        PendingOp op;
        op.type = type;
        op.seq = seq;
        op.offset = offset;
        op.run.run_id = r.get_bytes();
        const std::uint32_t n = r.get_u32();
        r.check_count(n, 8);
        for (std::uint32_t i = 0; i < n; ++i) {
          const std::string key = r.get_bytes();
          op.run.config[key] = r.get_bytes();
        }
        if (op.run.run_id != run_config_id(op.run.config)) {
          why = "run id does not match its config hash";
          return false;
        }
        op.run.file = file;
        st.pending.push_back(std::move(op));
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
        PendingOp op;
        op.type = type;
        op.seq = seq;
        op.offset = offset;
        if (type == RecordType::CellResult) {
          op.cell = decode_cell_payload(payload);
        } else if (type == RecordType::ProfileRegion) {
          wire::Reader r(payload.data(), payload.size());
          op.profile.variant = r.get_bytes();
          op.profile.tuning = r.get_bytes();
          op.profile.profile = cali::profile_from_wire(r);
        } else if (type == RecordType::CounterSet) {
          op.counters = decode_counter_payload(payload);
        } else {
          wire::Reader r(payload.data(), payload.size());
          const std::uint32_t n = r.get_u32();
          r.check_count(n, 12);
          for (std::uint32_t i = 0; i < n; ++i) {
            const std::string key = r.get_bytes();
            op.summary[key] = r.get_f64();
          }
        }
        st.pending.push_back(std::move(op));
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
        for (auto& op : st.pending) {
          switch (op.type) {
            case RecordType::RunHeader: {
              RunIndexInfo info;
              info.entry.run_id = op.run.run_id;
              info.entry.first_offset = op.offset;
              info.entry.min_seq = op.seq;
              st.runs.push_back(std::move(op.run));
              st.index.push_back(std::move(info));
              st.open_run = static_cast<int>(st.runs.size()) - 1;
              break;
            }
            case RecordType::CellResult:
              st.index[st.open_run].kernels.push_back(op.cell.kernel);
              ++st.index[st.open_run].entry.cells;
              st.runs[st.open_run].cells.push_back(std::move(op.cell));
              ++st.committed_cells;
              break;
            case RecordType::ProfileRegion:
              ++st.index[st.open_run].entry.profiles;
              st.runs[st.open_run].profiles.push_back(std::move(op.profile));
              break;
            case RecordType::CounterSet:
              // Deliberately not indexed: the manifest entry layout
              // predates counter records and stays fixed; queries reach
              // counters through their run.
              st.runs[st.open_run].counters.push_back(std::move(op.counters));
              break;
            case RecordType::TraceSummary:
              ++st.index[st.open_run].entry.summaries;
              st.runs[st.open_run].trace_summary = std::move(op.summary);
              break;
            case RecordType::CommitMarker:
              break;  // never pending
          }
        }
        st.pending.clear();
        if (st.open_run >= 0) {
          st.index[st.open_run].entry.max_seq = seq;
          if (final_marker) {
            st.runs[st.open_run].complete = true;
            st.index[st.open_run].entry.complete = true;
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
                         const std::string& file,
                         std::uint64_t stop_after_seq) {
  RecordsScan out;
  ScanState st;
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
      (out.committed_end != end || !st.pending.empty())) {
    out.why = "uncommitted trailing records";
  }
  out.clean = out.why.empty();
  out.committed_seq = st.committed_seq;
  out.committed_cells = st.committed_cells;
  out.runs = std::move(st.runs);
  out.index = std::move(st.index);
  return out;
}

// ---------------------------------------------------------------------------
// Whole-file scans

SegmentScan scan_segment_image(std::string_view data,
                               const std::string& name) {
  SegmentScan seg;
  seg.name = name;
  seg.size = data.size();
  if (data.size() < kHeaderBytes ||
      std::memcmp(data.data(), kFileMagic, kHeaderBytes) != 0) {
    seg.problem = name + ": bad file header";
    return seg;
  }
  seg.rec = scan_records(data, kHeaderBytes, data.size(), 0, name);
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

LedgerScan scan_ledger(const std::string& dir, unsigned threads) {
  LedgerScan out;
  std::vector<std::string> paths;
  for (const std::string& name : list_segments(dir)) {
    paths.push_back((fs::path(dir) / name).string());
    const std::uint64_t idx = std::strtoull(name.c_str() + 4, nullptr, 10);
    out.max_segment_index = std::max(out.max_segment_index, idx);
  }
  out.segments.resize(paths.size());

  auto scan_one = [&](std::size_t i) {
    const std::string name = fs::path(paths[i]).filename().string();
    try {
      MappedFile map(paths[i]);
      out.segments[i] = scan_segment_image(map.view(), name);
    } catch (const std::exception& e) {
      out.segments[i].name = name;
      out.segments[i].problem = name + ": " + e.what();
      out.segments[i].data_clean = false;
    }
  };
  const unsigned workers = scan_threads(threads, paths.size());
  if (workers <= 1) {
    for (std::size_t i = 0; i < paths.size(); ++i) scan_one(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < paths.size();
             i = next.fetch_add(1)) {
          scan_one(i);
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
      for (auto& run : out.journal.runs) out.runs.push_back(std::move(run));
      out.journal.runs.clear();
      out.committed_cells += out.journal.committed_cells;
      if (out.journal.committed_seq != 0) prev = out.journal.committed_seq;
    }
  }
  out.final_committed_seq = prev;
  return out;
}

}  // namespace rperf::store
