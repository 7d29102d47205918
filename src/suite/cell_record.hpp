// The wire records a pooled sweep exchanges with its workers, and the
// classification of a worker that died before answering.
//
//   job     := blob kernel, variant, u64 tuning, tuning name,
//              u32 OpenMP team, injector state
//   result  := blob status, f64 time, f80 checksum, i64 size, i64 reps,
//              f64 setup_ms, f64 checksum_ms, u64 pool_hits, error,
//              injector state, u8 has_profile [profile],
//              u8 has_hwc [hwc sample]
//
// Strings are wire.hpp refs or length-prefixed bytes; the checksum
// crosses as raw long-double bits. Decoders throw wire::Error on a
// malformed blob.
#pragma once

#include <optional>
#include <string>

#include "faults/injector.hpp"
#include "instrument/profile.hpp"
#include "sandbox/pool.hpp"
#include "suite/run_result.hpp"

namespace rperf::suite {

/// A dispatched cell: the identity fields of `r` (kernel, variant,
/// tuning), the OpenMP team the supervisor admitted it with, and the
/// parent's injector state at dispatch.
[[nodiscard]] std::string encode_job(const RunResult& r, int threads,
                                     const std::string& injector_state);
/// Fill the identity fields of `r` from a dispatched cell.
void decode_job(const std::string& blob, RunResult& r, int& threads,
                std::string& injector_state);

/// A worker's answer: the cell's outcome fields of `r`, the injector state
/// after the job, and the cell's profile when it passed.
[[nodiscard]] std::string encode_cell_record(const RunResult& r,
                                             const std::string& injector_state,
                                             const cali::Profile* profile);
/// Fill the outcome fields of `r` from a worker's answer; its identity
/// fields (kernel, variant, tuning) are the caller's.
void decode_cell_record(const std::string& blob, RunResult& r,
                        std::string& injector_state,
                        std::optional<cali::Profile>& profile);

/// Classify a job whose worker died before sending its result: set the
/// status and error of `r`. `sandbox_mem_mb` > 0 means a memory limit was
/// set, under which a bare SIGKILL reads as out of memory.
void classify_failure(const sandbox::JobFailure& f, std::size_t sandbox_mem_mb,
                      RunResult& r);

/// The fault kind a failed job definitionally fired, for budget fold-back:
/// a corrupt frame implies protocorrupt; process deaths imply
/// segv/abort/oom/hang.
[[nodiscard]] std::optional<faults::FaultKind> implied_fault_kind(
    const sandbox::JobFailure& f, RunStatus status);

}  // namespace rperf::suite
