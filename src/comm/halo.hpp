// HaloTopology — virtual-rank halo-exchange decomposition.
//
// A periodic 2x2x2 grid of virtual ranks, each owning a (ld+2)^3 local
// array (interior ld^3 plus one ghost layer) for `num_vars` variables.
// For each of the 26 neighbor directions the topology precomputes
// RAJAPerf-style pack and unpack index lists; the suite's Comm kernels
// loop over these lists, which is exactly the computation the paper's
// HALO kernels measure. Message transport between virtual ranks is a
// buffer hand-off inside one address space, on one thread (see DESIGN.md
// substitutions).
#pragma once

#include <array>
#include <vector>

#include "port/range.hpp"

namespace rperf::comm {

using port::Index_type;

class HaloTopology {
 public:
  static constexpr int kRanksPerDim = 2;
  static constexpr int kNumRanks = 8;
  static constexpr int kNumDirections = 26;

  /// local_dim: interior cells per dimension per rank (>= 1).
  explicit HaloTopology(Index_type local_dim);

  [[nodiscard]] Index_type local_dim() const { return ld_; }
  /// Cells per local array including ghosts: (ld+2)^3.
  [[nodiscard]] Index_type local_cells() const {
    return (ld_ + 2) * (ld_ + 2) * (ld_ + 2);
  }

  /// Direction vectors, one per neighbor (all 26 nonzero offsets).
  [[nodiscard]] const std::array<std::array<int, 3>, kNumDirections>&
  directions() const {
    return dirs_;
  }
  /// Index of the opposite direction (-d).
  [[nodiscard]] int opposite(int dir) const { return opposite_[static_cast<std::size_t>(dir)]; }
  /// Neighbor rank of `rank` in direction `dir` (periodic).
  [[nodiscard]] int neighbor(int rank, int dir) const {
    return neighbors_[static_cast<std::size_t>(rank)]
                     [static_cast<std::size_t>(dir)];
  }

  /// Local indices of interior boundary cells to pack for direction `dir`
  /// (identical for every rank; loop order matches the unpack list of the
  /// opposite direction).
  [[nodiscard]] const std::vector<Index_type>& pack_list(int dir) const {
    return pack_lists_[static_cast<std::size_t>(dir)];
  }
  /// Local indices of ghost cells receiving data from direction `dir`.
  [[nodiscard]] const std::vector<Index_type>& unpack_list(int dir) const {
    return unpack_lists_[static_cast<std::size_t>(dir)];
  }

  /// Total elements packed across all 26 directions (one variable).
  [[nodiscard]] Index_type total_pack_elements() const;

 private:
  Index_type ld_;
  std::array<std::array<int, 3>, kNumDirections> dirs_{};
  std::array<int, kNumDirections> opposite_{};
  std::array<std::array<int, kNumDirections>, kNumRanks> neighbors_{};
  std::array<std::vector<Index_type>, kNumDirections> pack_lists_;
  std::array<std::vector<Index_type>, kNumDirections> unpack_lists_;
};

}  // namespace rperf::comm
