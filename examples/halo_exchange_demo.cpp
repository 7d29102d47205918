// Halo-exchange demo: the pack -> hand-off -> unpack loop of the suite's
// HALO_EXCHANGE kernel, driving a small computation end to end. Eight
// virtual ranks each own a subdomain of a periodic 3-D grid, run Jacobi
// smoothing steps, and exchange one-cell halos through the HaloTopology
// pack/unpack lists: every rank packs one buffer per direction, each
// buffer is handed to the neighbor that direction names, and every rank
// unpacks what it received into its ghost cells.
#include <array>
#include <cstdio>
#include <vector>

#include "comm/halo.hpp"

int main() {
  using namespace rperf;
  using comm::HaloTopology;
  constexpr port::Index_type kLocalDim = 16;
  constexpr int kSteps = 4;
  constexpr int kRanks = HaloTopology::kNumRanks;
  constexpr int kDirs = HaloTopology::kNumDirections;

  const HaloTopology topo(kLocalDim);
  const auto cells = static_cast<std::size_t>(topo.local_cells());
  const port::Index_type stride = kLocalDim + 2;

  std::vector<std::vector<double>> fields;
  for (int rank = 0; rank < kRanks; ++rank) {
    fields.emplace_back(cells, static_cast<double>(rank + 1));
  }
  // send[rank][d] is what `rank` packs for direction d; recv[rank][d] is
  // what it receives from its neighbor in direction d.
  std::array<std::array<std::vector<double>, kDirs>, kRanks> send;
  std::array<std::array<std::vector<double>, kDirs>, kRanks> recv;

  for (int step = 0; step < kSteps; ++step) {
    // Pack one buffer per direction.
    for (int rank = 0; rank < kRanks; ++rank) {
      const auto& field = fields[static_cast<std::size_t>(rank)];
      for (int d = 0; d < kDirs; ++d) {
        const auto& plist = topo.pack_list(d);
        auto& buf = send[static_cast<std::size_t>(rank)]
                        [static_cast<std::size_t>(d)];
        buf.resize(plist.size());
        for (std::size_t k = 0; k < plist.size(); ++k) {
          buf[k] = field[static_cast<std::size_t>(plist[k])];
        }
      }
    }
    // Hand off: the neighbor in direction d packed its boundary toward
    // this rank as direction opposite(d).
    for (int rank = 0; rank < kRanks; ++rank) {
      for (int d = 0; d < kDirs; ++d) {
        recv[static_cast<std::size_t>(rank)][static_cast<std::size_t>(d)] =
            send[static_cast<std::size_t>(topo.neighbor(rank, d))]
                [static_cast<std::size_t>(topo.opposite(d))];
      }
    }
    for (int rank = 0; rank < kRanks; ++rank) {
      auto& field = fields[static_cast<std::size_t>(rank)];
      // Unpack into the ghost cells.
      for (int d = 0; d < kDirs; ++d) {
        const auto& ulist = topo.unpack_list(d);
        const auto& buf = recv[static_cast<std::size_t>(rank)]
                              [static_cast<std::size_t>(d)];
        for (std::size_t k = 0; k < ulist.size(); ++k) {
          field[static_cast<std::size_t>(ulist[k])] = buf[k];
        }
      }
      // Jacobi smoothing on the interior.
      std::vector<double> next = field;
      for (port::Index_type x = 1; x <= kLocalDim; ++x) {
        for (port::Index_type y = 1; y <= kLocalDim; ++y) {
          for (port::Index_type z = 1; z <= kLocalDim; ++z) {
            const port::Index_type c = (x * stride + y) * stride + z;
            next[static_cast<std::size_t>(c)] =
                (field[static_cast<std::size_t>(c)] +
                 field[static_cast<std::size_t>(c + 1)] +
                 field[static_cast<std::size_t>(c - 1)] +
                 field[static_cast<std::size_t>(c + stride)] +
                 field[static_cast<std::size_t>(c - stride)] +
                 field[static_cast<std::size_t>(c + stride * stride)] +
                 field[static_cast<std::size_t>(c - stride * stride)]) /
                7.0;
          }
        }
      }
      field = std::move(next);
    }
  }

  std::vector<double> rank_sums(kRanks, 0.0);
  double total = 0.0;
  for (int rank = 0; rank < kRanks; ++rank) {
    const auto& field = fields[static_cast<std::size_t>(rank)];
    double sum = 0.0;
    for (port::Index_type x = 1; x <= kLocalDim; ++x) {
      for (port::Index_type y = 1; y <= kLocalDim; ++y) {
        for (port::Index_type z = 1; z <= kLocalDim; ++z) {
          sum += field[static_cast<std::size_t>((x * stride + y) * stride +
                                                z)];
        }
      }
    }
    rank_sums[static_cast<std::size_t>(rank)] = sum;
    total += sum;
  }
  std::printf("global field sum after %d smoothing steps: %.6f\n", kSteps,
              total);
  std::printf("per-rank interior sums (diffusion pulls them together):\n");
  for (std::size_t r = 0; r < rank_sums.size(); ++r) {
    std::printf("  rank %zu: %.4f\n", r, rank_sums[r]);
  }
  std::printf("demo complete: 8 ranks x %d steps x 26-direction halo "
              "exchange (pack, hand-off, unpack).\n",
              kSteps);
  return 0;
}
