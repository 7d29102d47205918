#include "suite/checkpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "sandbox/sandbox.hpp"

namespace rperf::suite {

namespace {

/// Call `fn` on each record of the JSON-lines file at `path` (on none when
/// it does not exist), skipping blank lines. A line that does not parse is
/// a record torn by a crash mid-append: drop it, but say so, since a
/// silently shrunken file looks like progress (or crash history)
/// evaporating.
void read_jsonl(const std::string& path, const std::string& what,
                const std::function<void(const json::Value&)>& fn) {
  std::ifstream is(path);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    json::Value v;
    try {
      v = json::Value::parse(line);
    } catch (const json::JsonError&) {
      std::cerr << "warning: " << path << ":" << line_no
                << ": dropping truncated " << what << "\n";
      continue;
    }
    fn(v);
  }
}

}  // namespace

std::string cell_key(const std::string& kernel, const std::string& variant,
                     const std::string& tuning_name) {
  return kernel + " [" + variant + "/" + tuning_name + "]";
}

std::string checksum_to_hex(long double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%La", v);
  return buf;
}

long double checksum_from_hex(const std::string& s) {
  return std::strtold(s.c_str(), nullptr);
}

std::string Checkpoint::progress_path() const {
  return dir_.empty() ? "" : dir_ + "/progress.jsonl";
}

std::string Checkpoint::crashes_path() const {
  return dir_.empty() ? "" : dir_ + "/crashes.jsonl";
}

std::map<std::string, RunResult> Checkpoint::load_progress() const {
  std::map<std::string, RunResult> out;
  read_jsonl(progress_path(), "checkpoint record; the cell will be re-run",
             [&out](const json::Value& v) {
    try {
      RunResult r;
      r.kernel = v.at("kernel").as_string();
      r.variant = variant_from_string(v.at("variant").as_string());
      r.tuning_name = v.at("tuning").as_string();
      r.status = run_status_from_string(v.at("status").as_string());
      r.time_per_rep_sec = v.number_or("time_per_rep_sec", -1.0);
      if (v.contains("checksum_hex")) {
        r.checksum =
            checksum_from_hex(v.at("checksum_hex").as_string());
      } else {
        r.checksum = static_cast<long double>(v.number_or("checksum", 0.0));
      }
      r.problem_size =
          static_cast<Index_type>(v.number_or("problem_size", 0.0));
      r.reps = static_cast<Index_type>(v.number_or("reps", 0.0));
      r.setup_ms = v.number_or("setup_ms", 0.0);
      r.checksum_ms = v.number_or("checksum_ms", 0.0);
      r.pool_hits =
          static_cast<std::uint64_t>(v.number_or("pool_hits", 0.0));
      r.error = v.string_or("error", "");
      // Source only: a restored cell's counters were not observed by this
      // process, so values stay empty (no counter record re-lands in the
      // store) but the run metadata keeps an honest hwc_source.
      r.hwc.source = v.string_or("hwc_source", "");
      out[cell_key(r.kernel, r.variant, r.tuning_name)] = r;  // latest wins
    } catch (const std::exception&) {
      // Unknown kernel/variant from an older build: re-run it.
    }
  });
  return out;
}

std::map<std::string, CellCrashes> Checkpoint::load_crashes(
    const std::string& what) const {
  std::map<std::string, CellCrashes> out;
  read_jsonl(crashes_path(), what, [&out](const json::Value& v) {
    const std::string kind = v.string_or("kind", "crash");
    CellCrashes& c = out[cell_key(v.string_or("kernel", "?"),
                                  v.string_or("variant", "?"),
                                  v.string_or("tuning", "?"))];
    if (kind == "crash") {
      ++c.crashes;
      c.last_status = v.string_or("status", "Crashed");
      c.last_signal = v.string_or("signal_name", "");
      if (c.last_signal.empty() && v.contains("exit_code")) {
        c.last_signal = "exit " + std::to_string(static_cast<int>(
                                      v.number_or("exit_code", 0.0)));
      }
      c.quarantined = c.quarantined || v.bool_or("quarantined", false);
    } else if (kind == "quarantine-skip") {
      c.quarantined = true;
    }
  });
  return out;
}

void Checkpoint::start(bool resume,
                       std::chrono::steady_clock::time_point epoch) {
  epoch_ = epoch;
  if (dir_.empty()) return;
  // Restored cells are re-appended, so the file always reflects the latest
  // sweep. The directory fsync makes the file's entry durable once per run.
  std::filesystem::create_directories(dir_);
  try {
    progress_file_.open(progress_path(), "progress");
    progress_file_.truncate(0);
    store::fsync_dir(dir_);
  } catch (const store::IoError& e) {
    throw std::runtime_error("cannot write progress file: " +
                             std::string(e.what()));
  }
  if (!resume) std::filesystem::remove(crashes_path());
}

void Checkpoint::append_progress(const RunResult& r,
                                 const std::string& hwc_reason) {
  if (!progress_file_.is_open()) return;
  json::Object o;
  o["kernel"] = r.kernel;
  o["variant"] = to_string(r.variant);
  o["tuning"] = r.tuning_name;
  o["status"] = to_string(r.status);
  o["time_per_rep_sec"] = r.time_per_rep_sec;
  o["checksum"] = static_cast<double>(r.checksum);
  // Exact long-double round-trip so restored cells keep bit-identical
  // checksums (the readable double above is for humans and older readers).
  o["checksum_hex"] = checksum_to_hex(r.checksum);
  o["problem_size"] = static_cast<std::int64_t>(r.problem_size);
  o["reps"] = static_cast<std::int64_t>(r.reps);
  o["attempts"] = r.attempts;
  o["setup_ms"] = r.setup_ms;
  o["checksum_ms"] = r.checksum_ms;
  o["pool_hits"] = static_cast<std::int64_t>(r.pool_hits);
  if (!r.hwc.empty()) {
    o["hwc_source"] = r.hwc.source;
    if (r.hwc.source != "measured" && !hwc_reason.empty()) {
      o["hwc_unavailable_reason"] = hwc_reason;
    }
  }
  o["t_ms"] = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - epoch_)
                  .count();
  if (!r.error.empty()) o["error"] = r.error;
  std::string line = json::Value(std::move(o)).dump();
  line.push_back('\n');
  // One append and one fsync per cell, so the record is on disk before
  // the next dispatch decision. start() truncated the file, so no record
  // ever follows a torn one.
  try {
    progress_file_.append(line.data(), line.size());
    progress_file_.sync();
  } catch (const store::IoError& e) {
    throw std::runtime_error("cannot write progress file: " +
                             std::string(e.what()));
  }
}

void Checkpoint::append_crash(const RunResult& r, const sandbox::JobFailure& f,
                              int crashes, bool quarantined) const {
  json::Object o;
  o["kind"] = "crash";
  o["kernel"] = r.kernel;
  o["variant"] = to_string(r.variant);
  o["tuning"] = r.tuning_name;
  o["status"] = to_string(r.status);
  o["reason"] = sandbox::to_string(f.reason);
  o["crashes"] = crashes;
  o["attempts"] = r.attempts;
  o["exit_code"] = f.exit_code;
  o["deadline_killed"] = f.reason == sandbox::FailReason::DeadlineKilled;
  if (!f.exited && f.signal != 0) {
    o["signal"] = f.signal;
    o["signal_name"] = sandbox::signal_name(f.signal);
  }
  o["error"] = r.error;
  if (!f.stderr_tail.empty()) o["stderr_tail"] = f.stderr_tail;
  o["max_rss_kb"] = static_cast<std::int64_t>(f.usage.max_rss_kb);
  o["user_sec"] = f.usage.user_sec;
  o["sys_sec"] = f.usage.sys_sec;
  o["quarantined"] = quarantined;
  append_crash_line(std::move(o));
}

void Checkpoint::append_quarantine_skip(const RunResult& r,
                                        int crashes) const {
  json::Object o;
  o["kind"] = "quarantine-skip";
  o["kernel"] = r.kernel;
  o["variant"] = to_string(r.variant);
  o["tuning"] = r.tuning_name;
  o["crashes"] = crashes;
  append_crash_line(std::move(o));
}

void Checkpoint::append_crash_line(json::Object o) const {
  if (dir_.empty()) return;
  o["t_ms"] = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - epoch_)
                  .count();
  std::ofstream os(crashes_path(), std::ios::app);
  if (!os) return;  // forensics are best-effort; the sweep continues
  std::string line = json::Value(std::move(o)).dump();
  line.push_back('\n');
  os.write(line.data(), static_cast<std::streamsize>(line.size()));
}

}  // namespace rperf::suite
