#include "suite/types.hpp"

#include <stdexcept>

namespace rperf::suite {

std::string to_string(GroupID g) {
  switch (g) {
    case GroupID::Algorithm: return "Algorithm";
    case GroupID::Apps: return "Apps";
    case GroupID::Basic: return "Basic";
    case GroupID::Comm: return "Comm";
    case GroupID::Lcals: return "Lcals";
    case GroupID::Polybench: return "Polybench";
    case GroupID::Stream: return "Stream";
  }
  return "?";
}

std::string to_string(VariantID v) {
  switch (v) {
    case VariantID::Base_Seq: return "Base_Seq";
    case VariantID::Lambda_Seq: return "Lambda_Seq";
    case VariantID::RAJA_Seq: return "RAJA_Seq";
    case VariantID::Base_OpenMP: return "Base_OpenMP";
    case VariantID::Lambda_OpenMP: return "Lambda_OpenMP";
    case VariantID::RAJA_OpenMP: return "RAJA_OpenMP";
  }
  return "?";
}

std::string to_string(Complexity c) {
  switch (c) {
    case Complexity::N: return "n";
    case Complexity::N_log_N: return "n lg n";
    case Complexity::N_3_2: return "n^3/2";
    case Complexity::N_2_3: return "n^2/3";
  }
  return "?";
}

std::string to_string(FeatureID f) {
  switch (f) {
    case FeatureID::Forall: return "Forall";
    case FeatureID::Kernel: return "Kernel";
    case FeatureID::Sort: return "Sort";
    case FeatureID::Scan: return "Scan";
    case FeatureID::Reduction: return "Reduction";
    case FeatureID::Atomic: return "Atomic";
    case FeatureID::View: return "View";
    case FeatureID::Workgroup: return "Workgroup";
  }
  return "?";
}

std::string to_string(RunStatus s) {
  switch (s) {
    case RunStatus::Passed: return "Passed";
    case RunStatus::Failed: return "Failed";
    case RunStatus::ChecksumInvalid: return "ChecksumInvalid";
    case RunStatus::TimedOut: return "TimedOut";
    case RunStatus::Skipped: return "Skipped";
    case RunStatus::Crashed: return "Crashed";
    case RunStatus::OutOfMemory: return "OutOfMemory";
    case RunStatus::Killed: return "Killed";
  }
  return "?";
}

std::string to_string(IsolationMode m) {
  switch (m) {
    case IsolationMode::None: return "none";
    case IsolationMode::Kernel: return "kernel";
    case IsolationMode::Cell: return "cell";
  }
  return "?";
}

std::string to_string(ChecksumOrder o) {
  switch (o) {
    case ChecksumOrder::Exact: return "exact";
    case ChecksumOrder::Unordered: return "unordered";
  }
  return "?";
}

const std::vector<RunStatus>& all_run_statuses() {
  static const std::vector<RunStatus> statuses = {
      RunStatus::Passed,      RunStatus::Failed,
      RunStatus::ChecksumInvalid, RunStatus::TimedOut,
      RunStatus::Skipped,     RunStatus::Crashed,
      RunStatus::OutOfMemory, RunStatus::Killed};
  return statuses;
}

const std::vector<GroupID>& all_groups() {
  static const std::vector<GroupID> groups = {
      GroupID::Algorithm, GroupID::Apps,      GroupID::Basic, GroupID::Comm,
      GroupID::Lcals,     GroupID::Polybench, GroupID::Stream};
  return groups;
}

const std::vector<VariantID>& all_variants() {
  static const std::vector<VariantID> variants = {
      VariantID::Base_Seq,    VariantID::Lambda_Seq,
      VariantID::RAJA_Seq,    VariantID::Base_OpenMP,
      VariantID::Lambda_OpenMP, VariantID::RAJA_OpenMP};
  return variants;
}

GroupID group_from_string(const std::string& s) {
  for (GroupID g : all_groups()) {
    if (to_string(g) == s) return g;
  }
  throw std::invalid_argument("unknown group: " + s);
}

VariantID variant_from_string(const std::string& s) {
  for (VariantID v : all_variants()) {
    if (to_string(v) == s) return v;
  }
  throw std::invalid_argument("unknown variant: " + s);
}

RunStatus run_status_from_string(const std::string& s) {
  for (RunStatus st : all_run_statuses()) {
    if (to_string(st) == s) return st;
  }
  throw std::invalid_argument("unknown run status: " + s);
}

IsolationMode isolation_from_string(const std::string& s) {
  for (IsolationMode m :
       {IsolationMode::None, IsolationMode::Kernel, IsolationMode::Cell}) {
    if (to_string(m) == s) return m;
  }
  throw std::invalid_argument("unknown isolation mode: " + s +
                              " (want none|kernel|cell)");
}

bool is_raja_variant(VariantID v) {
  return v == VariantID::RAJA_Seq || v == VariantID::RAJA_OpenMP;
}

bool is_openmp_variant(VariantID v) {
  return v == VariantID::Base_OpenMP || v == VariantID::Lambda_OpenMP ||
         v == VariantID::RAJA_OpenMP;
}

}  // namespace rperf::suite
