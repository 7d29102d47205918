# The acceptance scenario for sandboxed execution: a process-fatal fault
# (SIGSEGV) in Basic_DAXPY must not take down the driver — the sweep
# completes with the cell marked Crashed, forensics land in crashes.jsonl,
# and the exit code flags it (4). A --resume run without the fault re-runs
# only the crashed cell and succeeds, and rperf-report surfaces the crash
# history with exit 4.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(
  COMMAND "${RAJAPERF}" --kernels Basic_DAXPY,Stream_TRIAD
          --variants Base_Seq,Lambda_Seq --size-factor 0.01
          --isolate cell --faults segv@Basic_DAXPY
          --outdir "${WORKDIR}/out"
  OUTPUT_VARIABLE out1
  RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 4)
  message(FATAL_ERROR "segv run: want exit 4, got ${rc1}:\n${out1}")
endif()
if(NOT out1 MATCHES "Crashed Basic_DAXPY")
  message(FATAL_ERROR "segv run did not report the crash:\n${out1}")
endif()
if(NOT out1 MATCHES "crash forensics for")
  message(FATAL_ERROR "segv run printed no forensics hint:\n${out1}")
endif()
if(NOT EXISTS "${WORKDIR}/out/crashes.jsonl")
  message(FATAL_ERROR "no crashes.jsonl written")
endif()
# The surviving kernel still produced profiles.
file(GLOB profiles "${WORKDIR}/out/*.cali.json")
list(LENGTH profiles nprofiles)
if(nprofiles EQUAL 0)
  message(FATAL_ERROR "segv run produced no profiles for passing cells")
endif()

# Resume without the fault: only the crashed cells re-run; all pass.
execute_process(
  COMMAND "${RAJAPERF}" --kernels Basic_DAXPY,Stream_TRIAD
          --variants Base_Seq,Lambda_Seq --size-factor 0.01
          --isolate cell --resume --outdir "${WORKDIR}/out"
  OUTPUT_VARIABLE out2
  RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "resume run: want exit 0, got ${rc2}:\n${out2}")
endif()
if(NOT out2 MATCHES "restored from checkpoint")
  message(FATAL_ERROR "resume run restored nothing:\n${out2}")
endif()

# rperf-report keeps the crash history visible and flags it (exit 4).
execute_process(
  COMMAND "${REPORT}" "${WORKDIR}/out"
  OUTPUT_VARIABLE out3
  RESULT_VARIABLE rc3)
if(NOT rc3 EQUAL 4)
  message(FATAL_ERROR "report: want exit 4 for crash records, got ${rc3}:\n${out3}")
endif()
if(NOT out3 MATCHES "Crash summary")
  message(FATAL_ERROR "report printed no crash summary:\n${out3}")
endif()
if(NOT out3 MATCHES "SIGSEGV|exit ")
  message(FATAL_ERROR "crash summary lacks signal detail:\n${out3}")
endif()

# The whole process-fatal and wire fault grammar under the disposable
# per-kernel policy: every fault fires once, is contained to its worker,
# and its cell is retried on a fresh one; only the hang (deterministic)
# stays Killed. Each contained death leaves one forensics record. The
# 2 s deadline stands in for the 60 s default so the test stays short;
# Basic_MULADDSUB runs unfaulted beside them.
execute_process(
  COMMAND "${RAJAPERF}" --kernels Basic_DAXPY,Stream_TRIAD,Stream_ADD,Stream_COPY,Basic_MULADDSUB,Lcals_HYDRO_1D
          --variants Base_Seq,Lambda_Seq --size-factor 0.01
          --isolate kernel --retries 1 --max-cell-seconds 2
          --faults segv@Basic_DAXPY:1,abort@Stream_TRIAD:1,oom@Stream_COPY:1,hang@Stream_ADD:1,protocorrupt@Lcals_HYDRO_1D:1
          --outdir "${WORKDIR}/grammar"
  OUTPUT_VARIABLE out4
  RESULT_VARIABLE rc4)
if(NOT rc4 EQUAL 4)
  message(FATAL_ERROR "fault grammar run: want exit 4, got ${rc4}:\n${out4}")
endif()
if(NOT out4 MATCHES "cells: 11 passed, .* 1 killed")
  message(FATAL_ERROR "fault grammar run: want 11 passed + 1 killed:\n${out4}")
endif()
file(STRINGS "${WORKDIR}/grammar/crashes.jsonl" crash_lines)
list(LENGTH crash_lines ncrash)
if(NOT ncrash EQUAL 5)
  message(FATAL_ERROR "want 5 crash records, got ${ncrash}:\n${crash_lines}")
endif()
foreach(reason "SIGSEGV" "SIGABRT" "\"exit_code\":86" "\"reason\":\"deadline\""
               "\"reason\":\"protocol-corrupt\"")
  if(NOT crash_lines MATCHES "${reason}")
    message(FATAL_ERROR "no crash record matching ${reason}:\n${crash_lines}")
  endif()
endforeach()
