// Tests for the halo topology behind the Comm kernels.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "comm/halo.hpp"

namespace {

using namespace rperf::comm;

// ------------------------------------------------------------ HaloTopology

TEST(HaloTopology, HasTwentySixDirections) {
  HaloTopology topo(4);
  std::set<std::array<int, 3>> dirs(topo.directions().begin(),
                                    topo.directions().end());
  EXPECT_EQ(dirs.size(), 26u);
  EXPECT_FALSE(dirs.count({0, 0, 0}));
}

TEST(HaloTopology, OppositeIsAnInvolution) {
  HaloTopology topo(4);
  for (int d = 0; d < HaloTopology::kNumDirections; ++d) {
    const int o = topo.opposite(d);
    EXPECT_EQ(topo.opposite(o), d);
    for (int axis = 0; axis < 3; ++axis) {
      EXPECT_EQ(topo.directions()[static_cast<std::size_t>(d)]
                               [static_cast<std::size_t>(axis)],
                -topo.directions()[static_cast<std::size_t>(o)]
                                [static_cast<std::size_t>(axis)]);
    }
  }
}

TEST(HaloTopology, NeighborIsPeriodicAndReciprocal) {
  HaloTopology topo(4);
  for (int r = 0; r < HaloTopology::kNumRanks; ++r) {
    for (int d = 0; d < HaloTopology::kNumDirections; ++d) {
      const int nbr = topo.neighbor(r, d);
      EXPECT_GE(nbr, 0);
      EXPECT_LT(nbr, HaloTopology::kNumRanks);
      EXPECT_EQ(topo.neighbor(nbr, topo.opposite(d)), r);
    }
  }
}

TEST(HaloTopology, PackAndUnpackListsMatchInSize) {
  HaloTopology topo(5);
  for (int d = 0; d < HaloTopology::kNumDirections; ++d) {
    EXPECT_EQ(topo.pack_list(d).size(), topo.unpack_list(d).size());
    EXPECT_FALSE(topo.pack_list(d).empty());
  }
}

TEST(HaloTopology, TotalPackElementsMatchSurfaceFormula) {
  const rperf::port::Index_type ld = 6;
  HaloTopology topo(ld);
  // 6 faces (ld^2) + 12 edges (ld) + 8 corners (1).
  EXPECT_EQ(topo.total_pack_elements(), 6 * ld * ld + 12 * ld + 8);
}

TEST(HaloTopology, ListsStayInsideTheLocalArray) {
  HaloTopology topo(4);
  const auto cells = topo.local_cells();
  for (int d = 0; d < HaloTopology::kNumDirections; ++d) {
    for (auto idx : topo.pack_list(d)) {
      EXPECT_GE(idx, 0);
      EXPECT_LT(idx, cells);
    }
    for (auto idx : topo.unpack_list(d)) {
      EXPECT_GE(idx, 0);
      EXPECT_LT(idx, cells);
    }
  }
}

TEST(HaloTopology, PackListsAreInteriorUnpackListsAreGhost) {
  const rperf::port::Index_type ld = 4;
  HaloTopology topo(ld);
  const auto stride = ld + 2;
  auto coords = [&](rperf::port::Index_type idx) {
    return std::array<rperf::port::Index_type, 3>{
        idx / (stride * stride), (idx / stride) % stride, idx % stride};
  };
  for (int d = 0; d < HaloTopology::kNumDirections; ++d) {
    for (auto idx : topo.pack_list(d)) {
      for (auto c : coords(idx)) {
        EXPECT_GE(c, 1);
        EXPECT_LE(c, ld);
      }
    }
    bool any_ghost_axis = false;
    for (auto idx : topo.unpack_list(d)) {
      for (auto c : coords(idx)) {
        if (c == 0 || c == ld + 1) any_ghost_axis = true;
      }
    }
    EXPECT_TRUE(any_ghost_axis) << "direction " << d;
  }
}

TEST(HaloTopology, FullExchangeDeliversNeighborBoundaries) {
  // End-to-end: fill each rank's array with its rank id, exchange, and
  // check ghosts carry the correct neighbor's id.
  const rperf::port::Index_type ld = 3;
  HaloTopology topo(ld);
  const auto cells = static_cast<std::size_t>(topo.local_cells());
  std::vector<std::vector<double>> fields(
      HaloTopology::kNumRanks, std::vector<double>(cells, 0.0));
  for (int r = 0; r < HaloTopology::kNumRanks; ++r) {
    for (auto& v : fields[static_cast<std::size_t>(r)]) {
      v = static_cast<double>(r);
    }
  }
  // Pack, transport, unpack.
  for (int r = 0; r < HaloTopology::kNumRanks; ++r) {
    for (int d = 0; d < HaloTopology::kNumDirections; ++d) {
      const int nbr = topo.neighbor(r, d);
      const auto& plist = topo.pack_list(topo.opposite(d));
      const auto& ulist = topo.unpack_list(d);
      ASSERT_EQ(plist.size(), ulist.size());
      for (std::size_t k = 0; k < ulist.size(); ++k) {
        fields[static_cast<std::size_t>(r)]
              [static_cast<std::size_t>(ulist[k])] =
                  fields[static_cast<std::size_t>(nbr)]
                        [static_cast<std::size_t>(plist[k])];
      }
    }
  }
  for (int r = 0; r < HaloTopology::kNumRanks; ++r) {
    for (int d = 0; d < HaloTopology::kNumDirections; ++d) {
      const int nbr = topo.neighbor(r, d);
      for (auto idx : topo.unpack_list(d)) {
        EXPECT_DOUBLE_EQ(fields[static_cast<std::size_t>(r)]
                               [static_cast<std::size_t>(idx)],
                         static_cast<double>(nbr))
            << "rank " << r << " dir " << d;
      }
    }
  }
}

TEST(HaloTopology, RejectsDegenerateDim) {
  EXPECT_THROW(HaloTopology(0), std::invalid_argument);
}

}  // namespace
