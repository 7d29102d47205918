// KernelBase — the contract every suite kernel implements.
//
// A kernel is a self-contained loop computation with several programming-
// model variants that all produce the same answer. Subclasses:
//   * declare group, features, complexity, default size and reps in their
//     constructor, and register the variants they implement;
//   * allocate + deterministically initialize data in setUp();
//   * execute `run_reps` repetitions of the computation in runVariant();
//   * return a checksum of the outputs in computeChecksum(): the same bits
//     on every execution path and at every OpenMP team size, unless the
//     constructor declares the variant's ChecksumOrder Unordered (may
//     change from run to run, within reorder_bound(problem size); see
//     suite::checksums_agree);
//   * release data in tearDown().
//
// `execute()` drives the lifecycle, times the repetition loop, annotates a
// Caliper-substitute region named after the kernel, and attributes the
// analytic metrics (bytes read/written, FLOPs) to that region — exactly the
// integration pattern the paper describes.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "instrument/channel.hpp"
#include "machine/traits.hpp"
#include "suite/run_params.hpp"
#include "suite/types.hpp"

namespace rperf::suite {

/// Thrown when a kernel exceeds its per-kernel wall-clock budget
/// (RunParams::max_kernel_seconds); classified as RunStatus::TimedOut.
class KernelTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class KernelBase {
 public:
  KernelBase(std::string base_name, GroupID group, const RunParams& params);
  virtual ~KernelBase() = default;

  KernelBase(const KernelBase&) = delete;
  KernelBase& operator=(const KernelBase&) = delete;

  // ----- identity -----
  /// Full name, e.g. "Stream_TRIAD".
  [[nodiscard]] const std::string& name() const { return name_; }
  /// Name without the group prefix, e.g. "TRIAD".
  [[nodiscard]] const std::string& base_name() const { return base_name_; }
  [[nodiscard]] GroupID group() const { return group_; }
  [[nodiscard]] Complexity complexity() const { return complexity_; }
  [[nodiscard]] bool has_feature(FeatureID f) const {
    return (features_ & static_cast<std::uint32_t>(f)) != 0u;
  }
  [[nodiscard]] std::vector<FeatureID> features() const;
  [[nodiscard]] bool has_variant(VariantID v) const;
  [[nodiscard]] std::vector<VariantID> variants() const;
  /// How far the variant's checksum repeats across execution paths and
  /// OpenMP team sizes (Exact unless the kernel declares otherwise).
  [[nodiscard]] ChecksumOrder checksum_order(VariantID v) const;

  /// Tunings: named execution-parameter configurations (e.g. tile sizes,
  /// scheduling policies). Every kernel has at least "default".
  [[nodiscard]] const std::vector<std::string>& tunings() const {
    return tunings_;
  }
  [[nodiscard]] std::size_t num_tunings() const { return tunings_.size(); }

  // ----- sizing -----
  [[nodiscard]] Index_type default_prob_size() const { return default_size_; }
  [[nodiscard]] Index_type actual_prob_size() const { return actual_size_; }
  [[nodiscard]] Index_type run_reps() const { return reps_; }

  // ----- modeling inputs -----
  /// Analytic metrics (per repetition) + structural traits. Valid after
  /// construction; kernels fill the analytic fields from their actual size.
  [[nodiscard]] const machine::KernelTraits& traits() const { return traits_; }

  // ----- execution -----
  /// What one execute() measured: the fastest pass's seconds per
  /// repetition (negative until a pass completes); the checksum of the
  /// first pass that is not finite, else of the last pass; the seconds
  /// spent in setUp and in computeChecksum summed over all passes; and the
  /// working set's allocations the pool free lists served.
  struct Measurement {
    double time_per_rep_sec = -1.0;
    long double checksum = 0.0L;
    double setup_sec = 0.0;
    double checksum_sec = 0.0;
    std::uint64_t pool_hits = 0;
  };

  /// Run one variant under one tuning: setUp -> timed repetitions
  /// (npasses, min taken) -> checksum -> tearDown, with Caliper-substitute
  /// annotations on `channel`. Throws std::invalid_argument for an
  /// unavailable variant or out-of-range tuning, and KernelTimeout when the
  /// run exceeds RunParams::max_kernel_seconds (checked between passes).
  /// When any lifecycle stage throws, tearDown is still attempted so a
  /// failed cell cannot leak allocations into the rest of the sweep;
  /// tearDown must therefore tolerate being called after a failed setUp.
  Measurement execute(VariantID vid, std::size_t tuning,
                      cali::Channel& channel);
  Measurement execute(VariantID vid, cali::Channel& channel) {
    return execute(vid, 0, channel);
  }

 protected:
  // ----- subclass lifecycle hooks -----
  virtual void setUp(VariantID vid) = 0;
  virtual void runVariant(VariantID vid) = 0;
  virtual long double computeChecksum(VariantID vid) = 0;
  virtual void tearDown(VariantID vid) = 0;

  // ----- subclass configuration helpers (call from constructor) -----
  void set_default_size(Index_type n);
  void set_default_reps(Index_type reps);
  void set_complexity(Complexity c) { complexity_ = c; }
  void add_feature(FeatureID f) {
    features_ |= static_cast<std::uint32_t>(f);
  }
  void add_variant(VariantID v);
  void add_all_variants();
  /// Declare the checksum order class of `variants`. The classes' bound
  /// (reorder_bound) holds only for checksums that add non-negative terms;
  /// a kernel whose terms can cancel needs a bound of its own.
  void set_checksum_order(ChecksumOrder order,
                          std::initializer_list<VariantID> variants);
  /// Register an additional named tuning (index = registration order;
  /// "default" is always index 0).
  void add_tuning(const std::string& name);
  /// The tuning index of the currently executing run (valid inside
  /// setUp/runVariant/computeChecksum/tearDown).
  [[nodiscard]] std::size_t current_tuning() const { return tuning_; }
  /// Mutable traits for subclasses to fill in.
  machine::KernelTraits& traits_rw() { return traits_; }

  [[nodiscard]] const RunParams& params() const { return params_; }

 private:
  void finalize_sizing();

  std::string base_name_;
  std::string name_;
  GroupID group_;
  RunParams params_;  // by value: kernels outlive caller-provided params
  Complexity complexity_ = Complexity::N;
  std::uint32_t features_ = 0u;
  std::vector<VariantID> variants_;
  /// One per VariantID, value-initialized to Exact. A std::map here
  /// raised `sweep_inproc` peak RSS by 10-18% through heap layout alone.
  std::array<ChecksumOrder, 6> checksum_orders_{};

  Index_type default_size_ = 100000;
  Index_type default_reps_ = 10;
  Index_type actual_size_ = 100000;
  Index_type reps_ = 10;
  bool sized_ = false;

  machine::KernelTraits traits_;
  std::vector<std::string> tunings_{"default"};
  std::size_t tuning_ = 0;
};

}  // namespace rperf::suite
