// Basic group: small kernels that often present compiler-optimization
// challenges (Table I, group 3).
#pragma once

#include <array>

#include "kernels/common.hpp"

namespace rperf::kernels::basic {

RPERF_DECLARE_KERNEL(ARRAY_OF_PTRS, static constexpr int kNumPtrs = 8;
                     std::array<suite::Real_vec, kNumPtrs> m_sub;);
RPERF_DECLARE_KERNEL(COPY8);
RPERF_DECLARE_KERNEL(DAXPY);
RPERF_DECLARE_KERNEL(DAXPY_ATOMIC);
RPERF_DECLARE_KERNEL(IF_QUAD);
RPERF_DECLARE_KERNEL(INDEXLIST, port::Index_type m_len = 0;
                     suite::Index_vec m_list;
                     suite::Index_vec m_flags; suite::Index_vec m_pos;);
RPERF_DECLARE_KERNEL(INDEXLIST_3LOOP, port::Index_type m_len = 0;
                     suite::Index_vec m_list; suite::Index_vec m_counts;);
RPERF_DECLARE_KERNEL(INIT3);
RPERF_DECLARE_KERNEL(INIT_VIEW1D);
RPERF_DECLARE_KERNEL(INIT_VIEW1D_OFFSET);
RPERF_DECLARE_KERNEL(MAT_MAT_SHARED, port::Index_type m_dim = 0;);
RPERF_DECLARE_KERNEL(MULADDSUB);
RPERF_DECLARE_KERNEL(MULTI_REDUCE);
RPERF_DECLARE_KERNEL(NESTED_INIT, port::Index_type m_ni = 0, m_nj = 0,
                                  m_nk = 0;);
RPERF_DECLARE_KERNEL(PI_ATOMIC);
RPERF_DECLARE_KERNEL(PI_REDUCE);
RPERF_DECLARE_KERNEL(REDUCE3_INT, int m_imin = 0, m_imax = 0;
                     long long m_isum = 0;);
RPERF_DECLARE_KERNEL(REDUCE_STRUCT);
RPERF_DECLARE_KERNEL(TRAP_INT);

}  // namespace rperf::kernels::basic
