// KernelBase — the contract every suite kernel implements.
//
// A kernel is a self-contained loop computation with several programming-
// model variants that all produce the same answer. Subclasses:
//   * declare group, features, complexity, default size and reps in their
//     constructor, and register the variants they implement;
//   * allocate + deterministically initialize data in setUp();
//   * execute `run_reps` repetitions of the computation in runVariant();
//   * return an order-stable checksum of the outputs in computeChecksum();
//   * release data in tearDown().
//
// `execute()` drives the lifecycle, times the repetition loop, annotates a
// Caliper-substitute region named after the kernel, and attributes the
// analytic metrics (bytes read/written, FLOPs) to that region — exactly the
// integration pattern the paper describes.
#pragma once

#include <map>
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
  /// Run one variant under one tuning: setUp -> timed repetitions
  /// (npasses, min taken) -> checksum -> tearDown, with Caliper-substitute
  /// annotations on `channel`. Throws std::invalid_argument for an
  /// unavailable variant or out-of-range tuning, and KernelTimeout when the
  /// run exceeds RunParams::max_kernel_seconds (checked between passes).
  /// When any lifecycle stage throws, tearDown is still attempted so a
  /// failed cell cannot leak allocations into the rest of the sweep;
  /// tearDown must therefore tolerate being called after a failed setUp.
  void execute(VariantID vid, std::size_t tuning, cali::Channel& channel);
  void execute(VariantID vid, cali::Channel& channel) {
    execute(vid, 0, channel);
  }

  /// Seconds per repetition for the fastest pass; negative when the
  /// (variant, tuning) pair has not been executed.
  [[nodiscard]] double time_per_rep(VariantID vid,
                                    std::size_t tuning = 0) const;
  /// Checksum recorded by the last execution of the (variant, tuning):
  /// the first pass's that is not finite, else the last pass's.
  [[nodiscard]] long double checksum(VariantID vid,
                                     std::size_t tuning = 0) const;
  [[nodiscard]] bool was_run(VariantID vid, std::size_t tuning = 0) const;

  // ----- setup-cost observability (valid after execute()) -----
  /// Total seconds spent in setUp across all passes of the last execute().
  [[nodiscard]] double last_setup_sec() const { return last_setup_sec_; }
  /// Total seconds spent in computeChecksum across all passes.
  [[nodiscard]] double last_checksum_sec() const { return last_checksum_sec_; }
  /// Pool free-list hits during the last execute().
  [[nodiscard]] std::uint64_t last_pool_hits() const { return last_pool_hits_; }

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

  Index_type default_size_ = 100000;
  Index_type default_reps_ = 10;
  Index_type actual_size_ = 100000;
  Index_type reps_ = 10;
  bool sized_ = false;

  machine::KernelTraits traits_;
  std::vector<std::string> tunings_{"default"};
  std::size_t tuning_ = 0;

  std::map<std::pair<VariantID, std::size_t>, double> time_per_rep_;
  std::map<std::pair<VariantID, std::size_t>, long double> checksums_;

  double last_setup_sec_ = 0.0;
  double last_checksum_sec_ = 0.0;
  std::uint64_t last_pool_hits_ = 0;
};

}  // namespace rperf::suite
