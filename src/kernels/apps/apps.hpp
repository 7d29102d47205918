// Apps group: kernels extracted from LLNL multiphysics applications
// (Table I, group 2) — LULESH hydro fragments, transport sweeps, FEM
// partial-assembly operators, and mesh accumulation patterns.
//
// The five finite-element partial-assembly kernels (CONVECTION3DPA,
// DIFFUSION3DPA, MASS3DPA, MASS3DEA, EDGE3D) are implemented as faithful
// simplified sum-factorized / element-local quadrature loops with the same
// arithmetic-intensity character as the MFEM extractions in RAJAPerf (see
// DESIGN.md, substitutions).
#pragma once

#include "kernels/common.hpp"

namespace rperf::kernels::apps {

RPERF_DECLARE_KERNEL(CONVECTION3DPA, port::Index_type m_ne = 0;);
RPERF_DECLARE_KERNEL(DEL_DOT_VEC_2D, port::Index_type m_dim = 0;
                     suite::Index_vec m_zones;);
RPERF_DECLARE_KERNEL(DIFFUSION3DPA, port::Index_type m_ne = 0;);
RPERF_DECLARE_KERNEL(EDGE3D, port::Index_type m_ne = 0;);
RPERF_DECLARE_KERNEL(ENERGY);
RPERF_DECLARE_KERNEL(FIR);
RPERF_DECLARE_KERNEL(LTIMES, port::Index_type m_num_z = 0;);
RPERF_DECLARE_KERNEL(LTIMES_NOVIEW, port::Index_type m_num_z = 0;);
RPERF_DECLARE_KERNEL(MASS3DEA, port::Index_type m_ne = 0;);
RPERF_DECLARE_KERNEL(MASS3DPA, port::Index_type m_ne = 0;);
RPERF_DECLARE_KERNEL(MATVEC_3D_STENCIL, port::Index_type m_dim = 0;);
RPERF_DECLARE_KERNEL(NODAL_ACCUMULATION_3D, port::Index_type m_dim = 0;);
RPERF_DECLARE_KERNEL(PRESSURE);
RPERF_DECLARE_KERNEL(VOL3D, port::Index_type m_dim = 0;);
RPERF_DECLARE_KERNEL(ZONAL_ACCUMULATION_3D, port::Index_type m_dim = 0;);

}  // namespace rperf::kernels::apps
