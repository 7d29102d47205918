// Umbrella header for the rperf portability layer (the "RAJA" under study).
#pragma once

#include "port/atomic.hpp"     // IWYU pragma: export
#include "port/forall.hpp"     // IWYU pragma: export
#include "port/kernel.hpp"     // IWYU pragma: export
#include "port/policy.hpp"     // IWYU pragma: export
#include "port/range.hpp"      // IWYU pragma: export
#include "port/reduce.hpp"     // IWYU pragma: export
#include "port/scan.hpp"       // IWYU pragma: export
#include "port/sort.hpp"       // IWYU pragma: export
#include "port/view.hpp"       // IWYU pragma: export
