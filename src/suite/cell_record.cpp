#include "suite/cell_record.hpp"

#include <signal.h>

#include "instrument/hwc.hpp"
#include "instrument/wire_codec.hpp"
#include "sandbox/protocol.hpp"

namespace rperf::suite {

std::string encode_job(const RunResult& r, int threads,
                       const std::string& injector_state) {
  wire::Writer w;
  w.begin_blob();
  w.put_bytes(r.kernel);
  w.put_bytes(to_string(r.variant));
  w.put_u64(r.tuning);
  w.put_bytes(r.tuning_name);
  w.put_u32(static_cast<std::uint32_t>(threads));
  w.put_bytes(injector_state);
  return w.take();
}

void decode_job(const std::string& blob, RunResult& r, int& threads,
                std::string& injector_state) {
  wire::Reader rd(blob);
  rd.expect_blob();
  r.kernel = rd.get_bytes();
  r.variant = variant_from_string(rd.get_bytes());
  r.tuning = static_cast<std::size_t>(rd.get_u64());
  r.tuning_name = rd.get_bytes();
  threads = static_cast<int>(rd.get_u32());
  injector_state = rd.get_bytes();
}

std::string encode_cell_record(const RunResult& r,
                               const std::string& injector_state,
                               const cali::Profile* profile) {
  wire::Writer w;
  w.begin_blob();
  w.put_str(to_string(r.status));
  w.put_f64(r.time_per_rep_sec);
  w.put_f80(r.checksum);
  w.put_i64(static_cast<std::int64_t>(r.problem_size));
  w.put_i64(static_cast<std::int64_t>(r.reps));
  w.put_f64(r.setup_ms);
  w.put_f64(r.checksum_ms);
  w.put_u64(r.pool_hits);
  w.put_bytes(r.error);
  w.put_bytes(injector_state);
  w.put_u8(profile != nullptr ? 1 : 0);
  if (profile != nullptr) cali::profile_to_wire(*profile, w);
  w.put_u8(r.hwc.empty() ? 0 : 1);
  if (!r.hwc.empty()) hwc::sample_to_wire(r.hwc, w);
  return w.take();
}

void decode_cell_record(const std::string& blob, RunResult& r,
                        std::string& injector_state,
                        std::optional<cali::Profile>& profile) {
  wire::Reader rd(blob);
  rd.expect_blob();
  r.status = run_status_from_string(rd.get_str());
  r.time_per_rep_sec = rd.get_f64();
  r.checksum = rd.get_f80();
  r.problem_size = static_cast<Index_type>(rd.get_i64());
  r.reps = static_cast<Index_type>(rd.get_i64());
  r.setup_ms = rd.get_f64();
  r.checksum_ms = rd.get_f64();
  r.pool_hits = rd.get_u64();
  r.error = rd.get_bytes();
  injector_state = rd.get_bytes();
  if (rd.get_u8() != 0) profile = cali::profile_from_wire(rd);
  if (rd.get_u8() != 0) r.hwc = hwc::sample_from_wire(rd);
}

void classify_failure(const sandbox::JobFailure& f, std::size_t sandbox_mem_mb,
                      RunResult& r) {
  r.error = f.describe();
  if (f.reason == sandbox::FailReason::DeadlineKilled) {
    r.status = RunStatus::Killed;
  } else if (f.reason == sandbox::FailReason::ProtocolCorrupt) {
    r.status = RunStatus::Crashed;
  } else if (f.exited) {
    r.status = f.exit_code == sandbox::kOomExitCode ? RunStatus::OutOfMemory
                                                    : RunStatus::Crashed;
  } else if (f.signal == SIGXCPU) {
    // No pool sets RLIMIT_CPU, but one inherited from `ulimit -t` can
    // still end a worker this way.
    r.status = RunStatus::Killed;
    r.error = "worker exceeded its CPU limit (SIGXCPU)";
  } else if (f.signal == SIGKILL && sandbox_mem_mb > 0) {
    // The kernel OOM killer (or an unblockable kill under RLIMIT_AS
    // pressure) leaves SIGKILL as the only evidence.
    r.status = RunStatus::OutOfMemory;
    r.error = "worker killed (SIGKILL) under a memory limit";
  } else {
    r.status = RunStatus::Crashed;
  }
}

std::optional<faults::FaultKind> implied_fault_kind(
    const sandbox::JobFailure& f, RunStatus status) {
  if (f.reason == sandbox::FailReason::ProtocolCorrupt) {
    return faults::FaultKind::ProtocolCorrupt;
  }
  switch (status) {
    case RunStatus::Crashed:
      // ASan converts fatal signals into exit(1); attribute by best guess.
      return f.signal == SIGABRT ? faults::FaultKind::Abort
                                 : faults::FaultKind::Segv;
    case RunStatus::OutOfMemory:
      return faults::FaultKind::Oom;
    case RunStatus::Killed:
      return faults::FaultKind::Hang;
    default:
      return std::nullopt;
  }
}

}  // namespace rperf::suite
