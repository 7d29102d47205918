# A --resume run killed with SIGKILL during its first executed cell must
# leave every restored cell in progress.jsonl: restores are checkpointed
# before any cell runs, so the next --resume restores them again.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

# Run 1: Basic_DAXPY fails, the 6 Stream_TRIAD cells pass.
execute_process(
  COMMAND "${RAJAPERF}" --kernels Basic_DAXPY,Stream_TRIAD
          --size-factor 0.01 --faults throw@Basic_DAXPY
          --outdir "${WORKDIR}/out"
  OUTPUT_VARIABLE out1
  RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 4)
  message(FATAL_ERROR "faulted run: want exit 4, got ${rc1}:\n${out1}")
endif()

# Run 2: resume, with the first executed cell (Basic_DAXPY) slowed to 3 s
# per pass, and SIGKILL it after 2 s. GNU timeout KILLs its own process
# group, so CMake reports the death as "Subprocess killed" (some
# platforms surface 137 instead).
execute_process(
  COMMAND timeout -s KILL 2
          "${RAJAPERF}" --kernels Basic_DAXPY,Stream_TRIAD
          --size-factor 0.01 --resume --faults slow@Basic_DAXPY:3000ms
          --outdir "${WORKDIR}/out"
  OUTPUT_VARIABLE out2
  RESULT_VARIABLE rc2)
if(NOT (rc2 MATCHES "killed" OR rc2 EQUAL 137))
  message(FATAL_ERROR "kill run: want a SIGKILL death, got ${rc2}:\n${out2}")
endif()
file(STRINGS "${WORKDIR}/out/progress.jsonl" records REGEX "Stream_TRIAD")
list(LENGTH records ntriad)
if(NOT ntriad EQUAL 6)
  message(FATAL_ERROR
    "killed resume left ${ntriad} of 6 Stream_TRIAD records in progress.jsonl")
endif()

# Run 3: resume again; the 6 cells come back from the checkpoint.
execute_process(
  COMMAND "${RAJAPERF}" --kernels Basic_DAXPY,Stream_TRIAD
          --size-factor 0.01 --resume --outdir "${WORKDIR}/out"
  OUTPUT_VARIABLE out3
  RESULT_VARIABLE rc3)
if(NOT rc3 EQUAL 0)
  message(FATAL_ERROR "final resume: want exit 0, got ${rc3}:\n${out3}")
endif()
if(NOT out3 MATCHES "\\(6 restored from checkpoint\\)")
  message(FATAL_ERROR "final resume did not restore 6 cells:\n${out3}")
endif()
