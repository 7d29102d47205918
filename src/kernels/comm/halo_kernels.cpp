// Comm group: halo-exchange buffer packing kernels (Table I, group 4).
//
// HALO_PACKING:        pack boundary cells into per-direction buffers and
//                      unpack them into ghost cells (no transport).
// HALO_PACKING_FUSED:  the same work as one fused loop over all
//                      direction x variable segments (workgroup pattern) —
//                      one device launch instead of 156.
// HALO_SENDRECV:       transport only: deliver each rank's packed buffers
//                      to its neighbors.
// HALO_EXCHANGE:       pack -> transport -> unpack.
// HALO_EXCHANGE_FUSED: fused pack/unpack around the transport.
//
// Complexity is O(n^{2/3}): work scales with subdomain surface, not volume.
#include "kernels/comm/comm.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "comm/halo.hpp"

namespace rperf::kernels::comm_group {

using rperf::comm::HaloTopology;

namespace {
constexpr int kNumVars = 3;
constexpr int kDirs = HaloTopology::kNumDirections;
constexpr int kRanks = HaloTopology::kNumRanks;
}  // namespace

/// Shared state for all HALO kernels: virtual-rank fields, buffers, and
/// fused work lists, all drawn from the pool in setUp.
struct HaloState {
  using RankBufs = std::array<suite::Real_vec, kRanks>;

  std::unique_ptr<HaloTopology> topo;
  /// vars[rank * kNumVars + v] is one local array with ghosts.
  std::array<suite::Real_vec, kRanks * kNumVars> vars;
  /// Per-direction kernels: send_bufs[rank * kDirs + d] holds packed data,
  /// kNumVars blocks.
  std::array<suite::Real_vec, kRanks * kDirs> send_bufs;
  std::array<suite::Real_vec, kRanks * kDirs> recv_bufs;
  /// Fused kernels: the work list (same for every rank), (local cell idx,
  /// buffer slot), and one mega buffer per rank holding every direction's
  /// block at dir_offset. HALO_PACKING_FUSED packs into and unpacks from
  /// send_mega; HALO_EXCHANGE_FUSED unpacks from recv_mega.
  suite::Index_vec fused_pack_src;
  suite::Index_vec fused_pack_dst;
  suite::Index_vec fused_pack_var;
  suite::Index_vec fused_unpack_dst;
  suite::Index_vec fused_unpack_src;
  RankBufs send_mega;
  RankBufs recv_mega;
  /// HALO_PACKING_FUSED: ghost data for direction d sits in the block
  /// packed for opposite(d); redirect[slot] is that block's slot.
  suite::Index_vec redirect;
  /// Per-direction offset of its block in the mega buffer.
  std::array<port::Index_type, kDirs> dir_offset{};
  port::Index_type mega_size = 0;

  /// Topology, fields and block offsets, plus the per-direction buffers or
  /// (fused) the work list.
  void build(port::Index_type ld, bool fused) {
    topo = std::make_unique<HaloTopology>(ld);
    const auto cells = topo->local_cells();
    for (int r = 0; r < kRanks; ++r) {
      for (int v = 0; v < kNumVars; ++v) {
        suite::init_data(vars[static_cast<std::size_t>(r * kNumVars + v)],
                         cells,
                         3001u + static_cast<std::uint32_t>(r * 7 + v));
      }
    }
    port::Index_type offset = 0;
    for (int d = 0; d < kDirs; ++d) {
      dir_offset[static_cast<std::size_t>(d)] = offset;
      const auto len =
          static_cast<port::Index_type>(topo->pack_list(d).size());
      offset += len * kNumVars;
      if (fused) continue;
      for (int r = 0; r < kRanks; ++r) {
        suite::init_data_const(
            send_bufs[static_cast<std::size_t>(r * kDirs + d)],
            len * kNumVars, 0.0);
        suite::init_data_const(
            recv_bufs[static_cast<std::size_t>(r * kDirs + d)],
            len * kNumVars, 0.0);
      }
    }
    mega_size = offset;
    if (!fused) return;

    for (auto* list : {&fused_pack_src, &fused_pack_dst, &fused_pack_var,
                       &fused_unpack_dst, &fused_unpack_src}) {
      list->resize(static_cast<std::size_t>(mega_size));
    }
    for (int d = 0; d < kDirs; ++d) {
      const auto& plist = topo->pack_list(d);
      const auto& ulist = topo->unpack_list(d);
      const auto len = static_cast<port::Index_type>(plist.size());
      for (int v = 0; v < kNumVars; ++v) {
        for (port::Index_type k = 0; k < len; ++k) {
          const port::Index_type slot =
              dir_offset[static_cast<std::size_t>(d)] + v * len + k;
          const auto s = static_cast<std::size_t>(slot);
          fused_pack_src[s] = plist[static_cast<std::size_t>(k)];
          fused_pack_dst[s] = slot;
          fused_pack_var[s] = v;
          fused_unpack_dst[s] = ulist[static_cast<std::size_t>(k)];
          fused_unpack_src[s] = slot;
        }
      }
    }
  }

  /// Zero-filled mega buffers, one per rank.
  void build_mega(RankBufs& mega) const {
    for (auto& buf : mega) suite::init_data_const(buf, mega_size, 0.0);
  }
};

namespace {

port::Index_type halo_local_dim(port::Index_type prob_size) {
  auto ld = static_cast<port::Index_type>(
      std::cbrt(static_cast<double>(prob_size) / kRanks));
  if (ld < 3) ld = 3;
  return ld;
}

void halo_traits(rperf::machine::KernelTraits& t, const HaloTopology& topo,
                 bool packs, bool transports, bool fused) {
  const double surface =
      static_cast<double>(topo.total_pack_elements()) * kNumVars * kRanks;
  if (packs) {
    t.bytes_read = 2.0 * 8.0 * surface;  // pack read + unpack read
    t.bytes_written = 2.0 * 8.0 * surface;
    t.int_ops = 6.0 * surface;           // index-list indirection
  }
  if (transports) {
    t.bytes_read += 8.0 * surface;
    t.bytes_written += 8.0 * surface;
    t.messages_per_rep = kDirs;  // per-rank message streams are concurrent
    t.message_bytes = 8.0 * surface / kRanks;
  }
  t.flops = 0.0;
  t.working_set_bytes =
      8.0 * static_cast<double>(topo.local_cells()) * kNumVars * kRanks;
  t.branches = surface;
  t.avg_parallelism = static_cast<double>(topo.total_pack_elements());
  t.fp_eff_cpu = 0.05;
  t.fp_eff_gpu = 0.05;
  t.access_eff_cpu = 0.5;
  t.access_eff_gpu = 0.35;  // gather/scatter through index lists
  // Launch structure: unfused issues one device kernel per (dir, var) for
  // pack and for unpack; fused issues one of each.
  t.launches_per_rep = fused ? 2 : (packs ? 2 * kDirs * kNumVars : kDirs);
}

/// Pack one rank's boundary into its send buffers (one loop per dir/var).
void run_pack(VariantID vid, const HaloState& st, int rank,
              std::array<suite::Real_vec, kRanks * kDirs>& bufs) {
  const auto& topo = *st.topo;
  for (int d = 0; d < kDirs; ++d) {
    const auto& list = topo.pack_list(d);
    const auto len = static_cast<port::Index_type>(list.size());
    const port::Index_type* lp = list.data();
    double* buf = bufs[static_cast<std::size_t>(rank * kDirs + d)].data();
    for (int v = 0; v < kNumVars; ++v) {
      const double* var =
          st.vars[static_cast<std::size_t>(rank * kNumVars + v)].data();
      double* dst = buf + v * len;
      run_forall(vid, 0, len, 1,
                 [=](port::Index_type k) { dst[k] = var[lp[k]]; });
    }
  }
}

/// Unpack buffers into one rank's ghost cells. When `from_opposite_own` is
/// set (HALO_PACKING), data comes from this rank's own opposite-direction
/// send buffer; otherwise from the received buffers.
void run_unpack(VariantID vid, HaloState& st, int rank,
                const std::array<suite::Real_vec, kRanks * kDirs>& bufs,
                bool from_opposite_own) {
  const auto& topo = *st.topo;
  for (int d = 0; d < kDirs; ++d) {
    const auto& list = topo.unpack_list(d);
    const auto len = static_cast<port::Index_type>(list.size());
    const port::Index_type* lp = list.data();
    const int src_dir = from_opposite_own ? topo.opposite(d) : d;
    const double* buf =
        bufs[static_cast<std::size_t>(rank * kDirs + src_dir)].data();
    for (int v = 0; v < kNumVars; ++v) {
      double* var =
          st.vars[static_cast<std::size_t>(rank * kNumVars + v)].data();
      const double* src = buf + v * len;
      run_forall(vid, 0, len, 1,
                 [=](port::Index_type k) { var[lp[k]] = src[k]; });
    }
  }
}

/// Transport: deliver each rank's send buffers to neighbor recv buffers.
void run_transport(HaloState& st) {
  const auto& topo = *st.topo;
  for (int r = 0; r < kRanks; ++r) {
    for (int d = 0; d < kDirs; ++d) {
      const int nbr = topo.neighbor(r, d);
      const int opp = topo.opposite(d);
      st.recv_bufs[static_cast<std::size_t>(r * kDirs + d)] =
          st.send_bufs[static_cast<std::size_t>(nbr * kDirs + opp)];
    }
  }
}

long double halo_checksum(const HaloState& st) {
  long double sum = 0.0L;
  for (const auto& var : st.vars) {
    sum += suite::calc_checksum(var);
  }
  return sum;
}

}  // namespace

// ------------------------------------------------------------ HALO_PACKING

HALO_PACKING::HALO_PACKING(const RunParams& params)
    : KernelBase("HALO_PACKING", GroupID::Comm, params) {
  set_default_size(200000);
  set_default_reps(10);
  set_complexity(Complexity::N_2_3);
  add_feature(FeatureID::Forall);
  add_feature(FeatureID::Workgroup);
  add_all_variants();
  m_ld = halo_local_dim(actual_prob_size());
  HaloTopology topo(m_ld);
  halo_traits(traits_rw(), topo, /*packs=*/true, /*transports=*/false,
              /*fused=*/false);
}

HALO_PACKING::~HALO_PACKING() = default;

void HALO_PACKING::setUp(VariantID) {
  m_state = std::make_unique<HaloState>();
  m_state->build(m_ld, /*fused=*/false);
}

void HALO_PACKING::runVariant(VariantID vid) {
  for (Index_type r = 0; r < run_reps(); ++r) {
    for (int rank = 0; rank < kRanks; ++rank) {
      run_pack(vid, *m_state, rank, m_state->send_bufs);
    }
    for (int rank = 0; rank < kRanks; ++rank) {
      run_unpack(vid, *m_state, rank, m_state->send_bufs,
                 /*from_opposite_own=*/true);
    }
  }
}

long double HALO_PACKING::computeChecksum(VariantID) {
  return halo_checksum(*m_state);
}

void HALO_PACKING::tearDown(VariantID) { m_state.reset(); }

// ------------------------------------------------------ HALO_PACKING_FUSED

HALO_PACKING_FUSED::HALO_PACKING_FUSED(const RunParams& params)
    : KernelBase("HALO_PACKING_FUSED", GroupID::Comm, params) {
  set_default_size(200000);
  set_default_reps(10);
  set_complexity(Complexity::N_2_3);
  add_feature(FeatureID::Forall);
  add_feature(FeatureID::Workgroup);
  add_all_variants();
  m_ld = halo_local_dim(actual_prob_size());
  HaloTopology topo(m_ld);
  halo_traits(traits_rw(), topo, true, false, /*fused=*/true);
}

HALO_PACKING_FUSED::~HALO_PACKING_FUSED() = default;

void HALO_PACKING_FUSED::setUp(VariantID) {
  m_state = std::make_unique<HaloState>();
  HaloState& st = *m_state;
  st.build(m_ld, /*fused=*/true);
  st.build_mega(st.send_mega);
  st.redirect.resize(static_cast<std::size_t>(st.mega_size));
  const auto& topo = *st.topo;
  for (int d = 0; d < kDirs; ++d) {
    const auto len = static_cast<Index_type>(topo.pack_list(d).size());
    const Index_type base = st.dir_offset[static_cast<std::size_t>(d)];
    const Index_type obase =
        st.dir_offset[static_cast<std::size_t>(topo.opposite(d))];
    for (Index_type k = 0; k < len * kNumVars; ++k) {
      st.redirect[static_cast<std::size_t>(base + k)] = obase + k;
    }
  }
}

void HALO_PACKING_FUSED::runVariant(VariantID vid) {
  HaloState& st = *m_state;
  const auto total = static_cast<Index_type>(st.fused_pack_src.size());
  const Index_type* psrc = st.fused_pack_src.data();
  const Index_type* pdst = st.fused_pack_dst.data();
  const Index_type* pvar = st.fused_pack_var.data();
  const Index_type* udst = st.fused_unpack_dst.data();
  const Index_type* usrc = st.fused_unpack_src.data();
  const Index_type* rd = st.redirect.data();

  for (Index_type r = 0; r < run_reps(); ++r) {
    for (int rank = 0; rank < kRanks; ++rank) {
      double* buf = st.send_mega[static_cast<std::size_t>(rank)].data();
      std::array<double*, kNumVars> vars{};
      for (int v = 0; v < kNumVars; ++v) {
        vars[static_cast<std::size_t>(v)] =
            st.vars[static_cast<std::size_t>(rank * kNumVars + v)].data();
      }
      const auto varr = vars;
      run_forall(vid, 0, total, 1, [=](Index_type k) {
        buf[pdst[k]] = varr[static_cast<std::size_t>(pvar[k])][psrc[k]];
      });
      run_forall(vid, 0, total, 1, [=](Index_type k) {
        varr[static_cast<std::size_t>(pvar[k])][udst[k]] = buf[rd[usrc[k]]];
      });
    }
  }
}

long double HALO_PACKING_FUSED::computeChecksum(VariantID) {
  return halo_checksum(*m_state);
}

void HALO_PACKING_FUSED::tearDown(VariantID) { m_state.reset(); }

// ----------------------------------------------------------- HALO_SENDRECV

HALO_SENDRECV::HALO_SENDRECV(const RunParams& params)
    : KernelBase("HALO_SENDRECV", GroupID::Comm, params) {
  set_default_size(200000);
  set_default_reps(10);
  set_complexity(Complexity::N_2_3);
  add_feature(FeatureID::Workgroup);
  add_all_variants();
  m_ld = halo_local_dim(actual_prob_size());
  HaloTopology topo(m_ld);
  halo_traits(traits_rw(), topo, /*packs=*/false, /*transports=*/true,
              /*fused=*/true);
}

HALO_SENDRECV::~HALO_SENDRECV() = default;

void HALO_SENDRECV::setUp(VariantID) {
  m_state = std::make_unique<HaloState>();
  m_state->build(m_ld, /*fused=*/false);
  // Pre-fill the send buffers once; the kernel measures transport only.
  for (int rank = 0; rank < kRanks; ++rank) {
    run_pack(VariantID::Base_Seq, *m_state, rank, m_state->send_bufs);
  }
}

void HALO_SENDRECV::runVariant(VariantID) {
  for (Index_type r = 0; r < run_reps(); ++r) {
    run_transport(*m_state);
  }
}

long double HALO_SENDRECV::computeChecksum(VariantID) {
  long double sum = 0.0L;
  for (const auto& buf : m_state->recv_bufs) {
    sum += suite::calc_checksum(buf);
  }
  return sum;
}

void HALO_SENDRECV::tearDown(VariantID) { m_state.reset(); }

// ----------------------------------------------------------- HALO_EXCHANGE

HALO_EXCHANGE::HALO_EXCHANGE(const RunParams& params)
    : KernelBase("HALO_EXCHANGE", GroupID::Comm, params) {
  set_default_size(200000);
  set_default_reps(10);
  set_complexity(Complexity::N_2_3);
  add_feature(FeatureID::Forall);
  add_feature(FeatureID::Workgroup);
  add_all_variants();
  m_ld = halo_local_dim(actual_prob_size());
  HaloTopology topo(m_ld);
  halo_traits(traits_rw(), topo, /*packs=*/true, /*transports=*/true,
              /*fused=*/false);
}

HALO_EXCHANGE::~HALO_EXCHANGE() = default;

void HALO_EXCHANGE::setUp(VariantID) {
  m_state = std::make_unique<HaloState>();
  m_state->build(m_ld, /*fused=*/false);
}

void HALO_EXCHANGE::runVariant(VariantID vid) {
  for (Index_type r = 0; r < run_reps(); ++r) {
    for (int rank = 0; rank < kRanks; ++rank) {
      run_pack(vid, *m_state, rank, m_state->send_bufs);
    }
    run_transport(*m_state);
    for (int rank = 0; rank < kRanks; ++rank) {
      run_unpack(vid, *m_state, rank, m_state->recv_bufs,
                 /*from_opposite_own=*/false);
    }
  }
}

long double HALO_EXCHANGE::computeChecksum(VariantID) {
  return halo_checksum(*m_state);
}

void HALO_EXCHANGE::tearDown(VariantID) { m_state.reset(); }

// ----------------------------------------------------- HALO_EXCHANGE_FUSED

HALO_EXCHANGE_FUSED::HALO_EXCHANGE_FUSED(const RunParams& params)
    : KernelBase("HALO_EXCHANGE_FUSED", GroupID::Comm, params) {
  set_default_size(200000);
  set_default_reps(10);
  set_complexity(Complexity::N_2_3);
  add_feature(FeatureID::Forall);
  add_feature(FeatureID::Workgroup);
  add_all_variants();
  m_ld = halo_local_dim(actual_prob_size());
  HaloTopology topo(m_ld);
  halo_traits(traits_rw(), topo, /*packs=*/true, /*transports=*/true,
              /*fused=*/true);
}

HALO_EXCHANGE_FUSED::~HALO_EXCHANGE_FUSED() = default;

void HALO_EXCHANGE_FUSED::setUp(VariantID) {
  m_state = std::make_unique<HaloState>();
  m_state->build(m_ld, /*fused=*/true);
  m_state->build_mega(m_state->send_mega);
  m_state->build_mega(m_state->recv_mega);
}

void HALO_EXCHANGE_FUSED::runVariant(VariantID vid) {
  HaloState& st = *m_state;
  const auto total = static_cast<Index_type>(st.fused_pack_src.size());
  const Index_type* psrc = st.fused_pack_src.data();
  const Index_type* pdst = st.fused_pack_dst.data();
  const Index_type* pvar = st.fused_pack_var.data();
  const Index_type* udst = st.fused_unpack_dst.data();
  const Index_type* usrc = st.fused_unpack_src.data();
  auto& send_mega = st.send_mega;
  auto& recv_mega = st.recv_mega;

  for (Index_type r = 0; r < run_reps(); ++r) {
    for (int rank = 0; rank < kRanks; ++rank) {
      double* buf = send_mega[static_cast<std::size_t>(rank)].data();
      std::array<const double*, kNumVars> vars{};
      for (int v = 0; v < kNumVars; ++v) {
        vars[static_cast<std::size_t>(v)] =
            st.vars[static_cast<std::size_t>(rank * kNumVars + v)].data();
      }
      const auto varr = vars;
      run_forall(vid, 0, total, 1, [=](Index_type k) {
        buf[pdst[k]] = varr[static_cast<std::size_t>(pvar[k])][psrc[k]];
      });
    }
    // Transport: neighbor's opposite-direction block lands in block d.
    const auto& topo = *st.topo;
    for (int rank = 0; rank < kRanks; ++rank) {
      for (int d = 0; d < kDirs; ++d) {
        const int nbr = topo.neighbor(rank, d);
        const int opp = topo.opposite(d);
        const auto len =
            static_cast<Index_type>(topo.pack_list(d).size()) * kNumVars;
        const Index_type dst_off =
            st.dir_offset[static_cast<std::size_t>(d)];
        const Index_type src_off =
            st.dir_offset[static_cast<std::size_t>(opp)];
        std::copy_n(
            send_mega[static_cast<std::size_t>(nbr)].begin() + src_off, len,
            recv_mega[static_cast<std::size_t>(rank)].begin() + dst_off);
      }
    }
    for (int rank = 0; rank < kRanks; ++rank) {
      const double* buf = recv_mega[static_cast<std::size_t>(rank)].data();
      std::array<double*, kNumVars> vars{};
      for (int v = 0; v < kNumVars; ++v) {
        vars[static_cast<std::size_t>(v)] =
            st.vars[static_cast<std::size_t>(rank * kNumVars + v)].data();
      }
      const auto varr = vars;
      run_forall(vid, 0, total, 1, [=](Index_type k) {
        varr[static_cast<std::size_t>(pvar[k])][udst[k]] = buf[usrc[k]];
      });
    }
  }
}

long double HALO_EXCHANGE_FUSED::computeChecksum(VariantID) {
  return halo_checksum(*m_state);
}

void HALO_EXCHANGE_FUSED::tearDown(VariantID) { m_state.reset(); }

}  // namespace rperf::kernels::comm_group
