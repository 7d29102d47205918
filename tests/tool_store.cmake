# The acceptance scenario for the crash-consistent profile store: a
# pooled, sandboxed sweep lands in --store DIR, gets SIGKILLed mid-run,
# and the reopened store must pass fsck with every committed cell intact
# (recoverable torn tail at worst, never corrupt). A --resume re-run
# lands cleanly on top, the query modes answer, and sealed-segment
# damage maps to the documented exit-5 / --repair contract.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(STORE "${WORKDIR}/store")

# Phase 1: kill -9 mid-sweep. slow@* stretches the cells so the 2-second
# SIGKILL from timeout(1) lands while results are streaming into the
# journal. GNU timeout KILLs its own process group, so CMake reports the
# death as "Subprocess killed" (some platforms surface 137 instead);
# either way a clean exit 0 means the kill never landed.
execute_process(
  COMMAND timeout -s KILL 2
          "${RAJAPERF}" --kernels Basic_DAXPY,Stream_TRIAD,Stream_ADD,Stream_COPY
          --variants Base_Seq,Lambda_Seq,RAJA_Seq --size-factor 0.01
          --workers 2 --npasses 2 --faults slow@*:500ms --fault-seed 7
          --outdir "${WORKDIR}/out" --store "${STORE}"
  OUTPUT_VARIABLE out1
  RESULT_VARIABLE rc1)
if(NOT (rc1 MATCHES "killed" OR rc1 EQUAL 137))
  message(FATAL_ERROR "kill run: want a SIGKILL death, got ${rc1}:\n${out1}")
endif()
if(NOT EXISTS "${STORE}/journal.rps")
  message(FATAL_ERROR "no journal written before the kill")
endif()

# Phase 2: the reopened store is never corrupt — clean (kill between
# records) or recoverable (torn tail) only, with the committed cells
# counted. Exit 5 here would mean the kill broke a sealed invariant.
execute_process(
  COMMAND "${REPORT}" --store "${STORE}" --fsck
  OUTPUT_VARIABLE fsck1
  RESULT_VARIABLE rcf1)
if(NOT (rcf1 EQUAL 0 OR rcf1 EQUAL 4))
  message(FATAL_ERROR "fsck after kill: want exit 0 or 4, got ${rcf1}:\n${fsck1}")
endif()
if(NOT fsck1 MATCHES "cells=([0-9]+)")
  message(FATAL_ERROR "fsck printed no cell count:\n${fsck1}")
endif()
set(cells_after_kill ${CMAKE_MATCH_1})

# --repair quarantines any torn tail (exit still reports the state it
# found); the rescan must then be clean with the same committed cells.
execute_process(
  COMMAND "${REPORT}" --store "${STORE}" --fsck --repair
  OUTPUT_VARIABLE repair1
  RESULT_VARIABLE rcr1)
if(NOT (rcr1 EQUAL 0 OR rcr1 EQUAL 4))
  message(FATAL_ERROR "fsck --repair: want exit 0 or 4, got ${rcr1}:\n${repair1}")
endif()
execute_process(
  COMMAND "${REPORT}" --store "${STORE}" --fsck
  OUTPUT_VARIABLE fsck2
  RESULT_VARIABLE rcf2)
if(NOT rcf2 EQUAL 0)
  message(FATAL_ERROR "fsck after repair: want exit 0, got ${rcf2}:\n${fsck2}")
endif()
if(NOT fsck2 MATCHES "cells=${cells_after_kill}[^0-9]")
  message(FATAL_ERROR
    "repair lost committed cells (want ${cells_after_kill}):\n${fsck2}")
endif()

# Phase 3: --resume re-runs what the kill interrupted and lands the run
# in the same store (a fresh content-addressed run: the fault spec is
# part of the config). Zero committed cells may be lost.
execute_process(
  COMMAND "${RAJAPERF}" --kernels Basic_DAXPY,Stream_TRIAD,Stream_ADD,Stream_COPY
          --variants Base_Seq,Lambda_Seq,RAJA_Seq --size-factor 0.01
          --workers 2 --resume
          --outdir "${WORKDIR}/out" --store "${STORE}"
  OUTPUT_VARIABLE out2
  RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "resume run: want exit 0, got ${rc2}:\n${out2}")
endif()
if(NOT out2 MATCHES "store: run ([0-9a-f]+) landed in")
  message(FATAL_ERROR "resume run did not land in the store:\n${out2}")
endif()
set(resumed_run_id ${CMAKE_MATCH_1})

execute_process(
  COMMAND "${REPORT}" --store "${STORE}" --fsck
  OUTPUT_VARIABLE fsck3
  RESULT_VARIABLE rcf3)
if(NOT rcf3 EQUAL 0)
  message(FATAL_ERROR "final fsck: want exit 0, got ${rcf3}:\n${fsck3}")
endif()
if(NOT fsck3 MATCHES "cells=([0-9]+)")
  message(FATAL_ERROR "final fsck printed no cell count:\n${fsck3}")
endif()
if(CMAKE_MATCH_1 LESS cells_after_kill)
  message(FATAL_ERROR
    "committed cells lost across kill+resume: ${cells_after_kill} -> "
    "${CMAKE_MATCH_1}:\n${fsck3}")
endif()
if(NOT fsck3 MATCHES "complete=([1-9])")
  message(FATAL_ERROR "no complete run after resume:\n${fsck3}")
endif()

# Phase 4: query modes. The list shows the runs; --run renders the
# resumed run's profiles as the analysis table.
execute_process(
  COMMAND "${REPORT}" --store "${STORE}"
  OUTPUT_VARIABLE list_out
  RESULT_VARIABLE rcl)
if(NOT rcl EQUAL 0)
  message(FATAL_ERROR "store list: want exit 0, got ${rcl}:\n${list_out}")
endif()
if(NOT list_out MATCHES "run\\(s\\) in")
  message(FATAL_ERROR "store list missing summary line:\n${list_out}")
endif()
execute_process(
  COMMAND "${REPORT}" --store "${STORE}" --run "${resumed_run_id}"
  OUTPUT_VARIABLE run_out
  RESULT_VARIABLE rcq)
if(NOT rcq EQUAL 0)
  message(FATAL_ERROR "store --run: want exit 0, got ${rcq}:\n${run_out}")
endif()
if(NOT run_out MATCHES "\nStream_TRIAD +[0-9]")
  message(FATAL_ERROR "store --run shows no Stream_TRIAD row:\n${run_out}")
endif()

# The killed run never reached finish_run, so it stored cells but no
# profiles. Its Passed cells are rebuilt into partial profiles, so it
# still renders a row for every kernel it committed.
if(NOT list_out MATCHES "run ([0-9a-f]+) complete=no cells=([0-9]+)")
  message(FATAL_ERROR "the killed run is not listed as incomplete:\n${list_out}")
endif()
set(killed_run_id ${CMAKE_MATCH_1})
if(CMAKE_MATCH_2 EQUAL 0)
  # The SIGKILL can land before any cell commits on a loaded host.
  message(STATUS "killed run committed no cell; partial rendering not checked")
else()
  execute_process(
    COMMAND "${REPORT}" --store "${STORE}" --run "${killed_run_id}"
    OUTPUT_VARIABLE killed_out
    RESULT_VARIABLE rck0)
  if(NOT rck0 EQUAL 0 OR NOT killed_out MATCHES "partial")
    message(FATAL_ERROR
      "killed run: want exit 0 and a partial marker, got ${rck0}:\n${killed_out}")
  endif()
  if(NOT killed_out MATCHES
     "\n(Basic_DAXPY|Stream_TRIAD|Stream_ADD|Stream_COPY) +[0-9]")
    message(FATAL_ERROR "killed run renders no committed kernel:\n${killed_out}")
  endif()
endif()

# Phase 4b: the shared analysis over every stored run (no --run): the
# top 5 nodes by mean time, largest first; --groupby on a metadata key;
# a bloom-pruned --kernel search; and exit 2 for a --groupby key no
# profile carries ("kernel" is a node, not a metadata key).
execute_process(
  COMMAND "${REPORT}" --store "${STORE}" --top 5 --groupby variant
  OUTPUT_VARIABLE top_out
  RESULT_VARIABLE rct)
if(NOT rct EQUAL 0)
  message(FATAL_ERROR "store --top: want exit 0, got ${rct}:\n${top_out}")
endif()
if(NOT top_out MATCHES "=== variant = Base_Seq ===")
  message(FATAL_ERROR "store --top --groupby variant has no groups:\n${top_out}")
endif()
# Each group renders at most 5 rows, largest mean first. With --run the
# group holds one profile, so a row's one value is its mean.
execute_process(
  COMMAND "${REPORT}" --store "${STORE}" --run "${resumed_run_id}" --top 5
          --groupby variant
  OUTPUT_VARIABLE top1_out
  RESULT_VARIABLE rct1)
if(NOT rct1 EQUAL 0)
  message(FATAL_ERROR "store --run --top: want exit 0, got ${rct1}:\n${top1_out}")
endif()
string(REPLACE "\n" ";" top1_lines "${top1_out}")
set(rows -1)
foreach(line IN LISTS top1_lines)
  if(line MATCHES "^=== ")
    set(rows 0)
    set(prev "")
  elseif(rows GREATER -1 AND line MATCHES "^[A-Z][A-Za-z0-9]*_[A-Z0-9_]+ +([-+.e0-9]+)$")
    math(EXPR rows "${rows} + 1")
    if(rows GREATER 5)
      message(FATAL_ERROR "store --top 5 rendered more than 5 rows:\n${top1_out}")
    endif()
    if(NOT prev STREQUAL "" AND CMAKE_MATCH_1 GREATER prev)
      message(FATAL_ERROR "store --top rows are not largest first:\n${top1_out}")
    endif()
    set(prev "${CMAKE_MATCH_1}")
  endif()
endforeach()
if(NOT rows GREATER 0)
  message(FATAL_ERROR "store --run --top rendered no rows:\n${top1_out}")
endif()
foreach(key bogus kernel)
  execute_process(
    COMMAND "${REPORT}" --store "${STORE}" --groupby ${key}
    OUTPUT_VARIABLE badgroup_out
    ERROR_VARIABLE badgroup_err
    RESULT_VARIABLE rcb)
  if(NOT rcb EQUAL 2)
    message(FATAL_ERROR
      "store --groupby ${key}: want usage exit 2, got ${rcb}:\n${badgroup_err}")
  endif()
endforeach()
execute_process(
  COMMAND "${REPORT}" --store "${STORE}" --kernel Stream_TRIAD --threads 2
  OUTPUT_VARIABLE kernel_out
  RESULT_VARIABLE rck)
if(NOT rck EQUAL 0)
  message(FATAL_ERROR
    "store --kernel: want exit 0, got ${rck}:\n${kernel_out}")
endif()
if(NOT kernel_out MATCHES "kernel Stream_TRIAD: [1-9]")
  message(FATAL_ERROR
    "store --kernel found no Stream_TRIAD cells:\n${kernel_out}")
endif()

# Phase 4c: one analysis path. A run read from its --outdir and the same
# run read from the store render the same lines, from "N profiles"
# through the worker summary, under every analysis flag. Covered: a
# faulted run followed by --resume (the stored profiles must fold in the
# restored cells, as the --outdir ones do) and a fresh --workers 2 run.
set(PSTORE "${WORKDIR}/pstore")
set(kernels Basic_DAXPY,Stream_TRIAD)
execute_process(
  COMMAND "${RAJAPERF}" --kernels ${kernels} --size-factor 0.01
          --faults throw@Basic_DAXPY --outdir "${WORKDIR}/pout"
          --store "${PSTORE}"
  OUTPUT_VARIABLE pout1
  RESULT_VARIABLE rcp1)
if(NOT rcp1 EQUAL 4)
  message(FATAL_ERROR "faulted run: want exit 4, got ${rcp1}:\n${pout1}")
endif()
set(parity_ids "")
foreach(leg "pout;--resume" "wout;--workers;2")
  list(POP_FRONT leg outdir)
  execute_process(
    COMMAND "${RAJAPERF}" --kernels ${kernels} --size-factor 0.01 ${leg}
            --outdir "${WORKDIR}/${outdir}" --store "${PSTORE}"
    OUTPUT_VARIABLE pout2
    RESULT_VARIABLE rcp2)
  if(NOT rcp2 EQUAL 0 OR NOT pout2 MATCHES "store: run ([0-9a-f]+) landed")
    message(FATAL_ERROR "${leg} run: want exit 0 and a stored run, got "
                        "${rcp2}:\n${pout2}")
  endif()
  set(run_id ${CMAKE_MATCH_1})
  list(APPEND parity_ids ${run_id})
  foreach(flags "" "--metric;flops" "--groupby;variant")
    execute_process(
      COMMAND "${REPORT}" "${WORKDIR}/${outdir}" ${flags}
      OUTPUT_VARIABLE dir_out
      RESULT_VARIABLE rcd)
    execute_process(
      COMMAND "${REPORT}" --store "${PSTORE}" --run "${run_id}" ${flags}
      OUTPUT_VARIABLE store_out
      RESULT_VARIABLE rcs)
    # The store prints the run's header, config and summary lines first.
    string(REGEX REPLACE "^run [^\n]*\n(  (config|summary) [^\n]*\n)*" ""
           store_body "${store_out}")
    if(NOT rcd EQUAL 0 OR NOT rcs EQUAL 0 OR NOT dir_out MATCHES "profiles, " OR
       NOT store_body STREQUAL dir_out)
      message(FATAL_ERROR "${outdir} [${flags}]: --outdir and --store "
                          "renderings differ (exit ${rcd}/${rcs}):\n"
                          "${dir_out}\n--- store:\n${store_out}")
    endif()
  endforeach()
  if(outdir STREQUAL "wout" AND NOT dir_out MATCHES "\nworkers: 2 pooled")
    message(FATAL_ERROR "the pooled run rendered no worker summary:\n${dir_out}")
  endif()
endforeach()
list(GET parity_ids 0 run_a)
list(GET parity_ids 1 run_b)

# Compare contract on two complete runs of the same kernels: exit 3 when
# a node leaves [1/T, T], 0 otherwise; a missing run exits 1, --compare
# without --run exits 2, and --diff and --topn are gone (unknown options).
foreach(case "3|--run;${run_a};--compare;${run_b};--threshold;1"
             "0|--run;${run_a};--compare;${run_b};--threshold;1e9"
             "0|--run;${run_a};--compare;${run_b};--groupby;variant;--threshold;1e9"
             "1|--run;${run_a};--compare;ffffffffffffffff"
             "2|--compare;${run_b}"
             "2|--diff;${run_a};${run_b}"
             "2|--topn;5")
  string(REPLACE "|" ";" parts "${case}")
  list(POP_FRONT parts want)
  execute_process(
    COMMAND "${REPORT}" --store "${PSTORE}" ${parts}
    OUTPUT_VARIABLE cmp_out
    ERROR_VARIABLE cmp_err
    RESULT_VARIABLE rcc)
  if(NOT rcc EQUAL want)
    message(FATAL_ERROR
      "store ${parts}: want exit ${want}, got ${rcc}:\n${cmp_out}\n${cmp_err}")
  endif()
endforeach()
# An ambiguous prefix is a usage error; the empty prefix names every run.
execute_process(
  COMMAND "${REPORT}" --store "${PSTORE}" --run "${run_a}" --compare ""
  OUTPUT_VARIABLE amb_out
  ERROR_VARIABLE amb_err
  RESULT_VARIABLE rca)
if(NOT rca EQUAL 2 OR NOT amb_err MATCHES "matches [0-9]+ runs")
  message(FATAL_ERROR "ambiguous --compare prefix: want exit 2, got ${rca}:\n"
                      "${amb_out}\n${amb_err}")
endif()

# Phase 5: damage inside a sealed segment is "beyond repair" — readers
# and fsck must exit 5 (never misparse), and only --repair (quarantining
# the segment) returns the store to health.
file(GLOB segments "${STORE}/seg-*.rps")
list(GET segments 0 victim)
file(APPEND "${victim}" "TRAILING-GARBAGE-IN-A-SEALED-SEGMENT")
execute_process(
  COMMAND "${REPORT}" --store "${STORE}"
  OUTPUT_VARIABLE corrupt_out
  ERROR_VARIABLE corrupt_err
  RESULT_VARIABLE rcc)
if(NOT rcc EQUAL 5)
  message(FATAL_ERROR
    "corrupt segment read: want exit 5, got ${rcc}:\n${corrupt_out}\n${corrupt_err}")
endif()
execute_process(
  COMMAND "${REPORT}" --store "${STORE}" --fsck
  OUTPUT_VARIABLE fsck4
  RESULT_VARIABLE rcf4)
if(NOT rcf4 EQUAL 5)
  message(FATAL_ERROR "corrupt fsck: want exit 5, got ${rcf4}:\n${fsck4}")
endif()
execute_process(
  COMMAND "${REPORT}" --store "${STORE}" --fsck --repair
  OUTPUT_VARIABLE repair2
  RESULT_VARIABLE rcr2)
if(NOT rcr2 EQUAL 5)
  message(FATAL_ERROR
    "corrupt fsck --repair: want exit 5 (state found), got ${rcr2}:\n${repair2}")
endif()
if(NOT EXISTS "${STORE}/quarantine")
  message(FATAL_ERROR "repair quarantined nothing:\n${repair2}")
endif()
execute_process(
  COMMAND "${REPORT}" --store "${STORE}" --fsck
  OUTPUT_VARIABLE fsck5
  RESULT_VARIABLE rcf5)
if(NOT rcf5 EQUAL 0)
  message(FATAL_ERROR
    "fsck after segment quarantine: want exit 0, got ${rcf5}:\n${fsck5}")
endif()
