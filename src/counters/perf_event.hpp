// rperf::hwc — real hardware counters via Linux perf_event_open(2).
//
// The paper's CPU pipeline reads PAPI preset events; this module is the
// measured back end behind those names. A PerfEventGroup opens one
// per-thread event group (cycles, instructions, branches, branch misses,
// L1D read misses, LLC read misses, reference cycles) with
// PERF_FORMAT_GROUP so one read(2) snapshots every event atomically, plus
// TOTAL_TIME_ENABLED / TOTAL_TIME_RUNNING so multiplexed readings can be
// scaled back to estimates (Caliper's papi service does the same).
//
// Mapping to PAPI preset names (the vocabulary every downstream consumer —
// TMA rollups, clustering, rperf-report, the profile store — is written
// against):
//
//   PERF_COUNT_HW_CPU_CYCLES          -> PAPI_TOT_CYC
//   PERF_COUNT_HW_INSTRUCTIONS        -> PAPI_TOT_INS
//   PERF_COUNT_HW_BRANCH_INSTRUCTIONS -> PAPI_BR_INS
//   PERF_COUNT_HW_BRANCH_MISSES       -> PAPI_BR_MSP
//   L1D  read misses (HW_CACHE)       -> PAPI_L2_DCM  (demand on L2)
//   LLC  read misses (HW_CACHE)       -> PAPI_L3_TCM
//   PERF_COUNT_HW_REF_CPU_CYCLES      -> PAPI_REF_CYC
//
// The two cache events are approximations, matching how the simulator
// uses the names: an L1D refill is a demand hitting L2 (PAPI_L2_DCM), an
// LLC miss is traffic leaving the cache hierarchy (PAPI_L3_TCM).
//
// Degradation contract: nothing in this module ever fails a run. probe()
// reports availability and a human-actionable reason (the
// perf_event_paranoid level, ENOSYS in containers, ...); open() tolerates
// individual unsupported events and fails open as a whole; callers fall
// back to the simulator (counters/papi.hpp) and record
// hwc_source=simulated with the reason.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "counters/papi.hpp"
#include "machine/predictor.hpp"
#include "machine/traits.hpp"
#include "sandbox/wire.hpp"

namespace rperf::hwc {

/// Result of the startup availability probe.
struct Probe {
  bool available = false;
  /// Why counters are unavailable ("" when available). Actionable: names
  /// the perf_event_paranoid level or the errno of the trial open.
  std::string reason;
  /// /proc/sys/kernel/perf_event_paranoid value; -2 when unreadable.
  int paranoid = -2;
};

/// Probe perf availability: read the paranoid level (overridable path for
/// tests) and attempt a trial one-event open. Never throws.
[[nodiscard]] Probe probe(
    const std::string& paranoid_path = "/proc/sys/kernel/perf_event_paranoid");

/// Process-wide probe, evaluated once on first use. Safe across fork: the
/// answer (kernel policy) is identical in parent and children, and pooled
/// workers fork before their first cell opens a group.
[[nodiscard]] const Probe& cached_probe();

/// Scale a multiplexed raw delta back to a full-interval estimate:
/// raw * time_enabled / time_running. Contract: time_running == 0 (the
/// event never got the PMU) returns 0.0 — no observation, no estimate —
/// and time_running >= time_enabled returns raw unchanged.
[[nodiscard]] double scale_multiplexed(std::uint64_t raw,
                                       std::uint64_t time_enabled,
                                       std::uint64_t time_running);

/// PAPI preset names the measured group maps to, in group order. A strict
/// subset of simulate_papi()'s key set, so measured profiles speak the
/// simulator's vocabulary.
[[nodiscard]] const std::vector<std::string>& papi_event_names();

/// One cell's counter observation — measured or simulated — as it crosses
/// process boundaries (the pool's wire records) and lands in the store.
struct Sample {
  /// Multiplex-scaled event deltas under PAPI preset names.
  counters::PAPICounters values;
  std::uint64_t time_enabled_ns = 0;
  std::uint64_t time_running_ns = 0;
  /// "measured" | "simulated" ("" = no observation taken).
  std::string source;
  /// Seconds spent opening/reading counters (the service's own cost).
  double overhead_sec = 0.0;

  [[nodiscard]] bool empty() const { return source.empty(); }
  /// True when the PMU rotated this group (readings are estimates).
  [[nodiscard]] bool multiplexed() const {
    return time_running_ns < time_enabled_ns;
  }
};

/// Wire codec for the typed counter record (pool worker -> supervisor, and
/// the store's counter records).
void sample_to_wire(const Sample& s, wire::Writer& w);
[[nodiscard]] Sample sample_from_wire(wire::Reader& r);

/// A per-thread perf event group. Not copyable; close() is idempotent and
/// the destructor closes.
class PerfEventGroup {
 public:
  /// Raw group snapshot (cumulative since open; callers delta two
  /// readings and scale the delta).
  struct Reading {
    std::vector<std::uint64_t> values;  ///< parallel to names()
    std::uint64_t time_enabled_ns = 0;
    std::uint64_t time_running_ns = 0;
  };

  PerfEventGroup() = default;
  ~PerfEventGroup();
  PerfEventGroup(const PerfEventGroup&) = delete;
  PerfEventGroup& operator=(const PerfEventGroup&) = delete;

  /// Open the group for the calling thread. Individual events the
  /// hardware lacks (commonly ref-cycles under virtualization) are
  /// dropped; the group fails only when the leader (cycles) cannot open.
  /// Returns false and fills `error` (when non-null) on failure; never
  /// throws.
  bool open(std::string* error = nullptr);
  [[nodiscard]] bool opened() const { return leader_fd_ >= 0; }
  /// PAPI names of the events that actually opened, in read order.
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }

  /// Snapshot the whole group in one read(2). Returns false on I/O error
  /// (group left closed).
  bool read(Reading* out);

  void close();

 private:
  int leader_fd_ = -1;
  std::vector<int> fds_;  ///< every open fd, leader first
  std::vector<std::uint64_t> ids_;  ///< PERF_FORMAT_ID of each event
  std::vector<std::string> names_;
};

/// TMA level-1 fractions estimated from measured counters. Heuristic
/// top-down attribution over generic events (documented constants, no
/// model-specific PMU events):
///   retiring        = min(1, IPC / issue_width)            (uops ~ instr)
///   bad_speculation = min(rem, kMispredictCycles * BR_MSP / CYC)
///   the remainder splits over frontend / core / memory proportionally to
///   stall-cycle weights: resteer+fetch bubbles, issue-slack, and
///   latency-weighted cache misses (kL2MissCycles * L2_DCM +
///   kLlcMissCycles * L3_TCM).
/// Fractions are clamped to [0,1] and sum to 1. Zero/absent cycles return
/// all-zero fractions (no observation — callers must treat sum()==0 as
/// "no data", mirroring the NaN contract of counters::ipc()).
[[nodiscard]] machine::TMAFractions measured_tma(
    const counters::PAPICounters& c);

/// Simulator fallback packaged as a Sample: simulate_papi scaled by
/// `scale` (reps x passes, aligning with measured region totals), with
/// source = "simulated".
[[nodiscard]] Sample simulated_sample(const machine::KernelTraits& traits,
                                      const machine::MachineModel& machine,
                                      double scale);

}  // namespace rperf::hwc
