# The acceptance scenario for the tracing service: a sandboxed sweep with
# --trace produces ONE Chrome-trace file covering the driver and every
# forked worker (>= 2 process rows), with per-thread spans for the OpenMP
# variant, readable by rperf-report --trace (summary, top-N, flamegraph),
# and monotonic t_ms stamps in progress.jsonl for timeline correlation.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env OMP_NUM_THREADS=2
          "${RAJAPERF}" --kernels Basic_DAXPY,Stream_TRIAD
          --variants Base_Seq,RAJA_OpenMP --size-factor 0.01
          --trace "${WORKDIR}/out/trace.json" --isolate=cell
          --outdir "${WORKDIR}/out"
  OUTPUT_VARIABLE out1
  RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "traced run: want exit 0, got ${rc1}:\n${out1}")
endif()
if(NOT out1 MATCHES "trace written to")
  message(FATAL_ERROR "traced run announced no trace file:\n${out1}")
endif()
if(NOT out1 MATCHES "\\(([0-9]+) worker chunk")
  message(FATAL_ERROR "trace line lacks the worker-chunk count:\n${out1}")
endif()
if(CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "sandboxed run streamed no worker trace chunks:\n${out1}")
endif()
if(NOT EXISTS "${WORKDIR}/out/trace.json")
  message(FATAL_ERROR "no trace.json written")
endif()

# progress.jsonl records carry the monotonic t_ms stamp.
file(READ "${WORKDIR}/out/progress.jsonl" progress)
if(NOT progress MATCHES "\"t_ms\"")
  message(FATAL_ERROR "progress.jsonl records lack t_ms:\n${progress}")
endif()

# Summary: one merged timeline with the driver plus worker process rows,
# per-thread rows from the OpenMP variant, and the recorded overhead.
execute_process(
  COMMAND "${REPORT}" --trace "${WORKDIR}/out/trace.json"
  OUTPUT_VARIABLE out2
  RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "report --trace: want exit 0, got ${rc2}:\n${out2}")
endif()
if(NOT out2 MATCHES "([0-9]+) process")
  message(FATAL_ERROR "report --trace printed no process count:\n${out2}")
endif()
if(CMAKE_MATCH_1 LESS 2)
  message(FATAL_ERROR "want >= 2 process rows (main + worker), got "
                      "${CMAKE_MATCH_1}:\n${out2}")
endif()
if(NOT out2 MATCHES "([0-9]+) thread row")
  message(FATAL_ERROR "report --trace printed no thread-row count:\n${out2}")
endif()
if(CMAKE_MATCH_1 LESS 2)
  message(FATAL_ERROR "want >= 2 thread rows from the OpenMP variant, got "
                      "${CMAKE_MATCH_1}:\n${out2}")
endif()
if(NOT out2 MATCHES "rperf-worker")
  message(FATAL_ERROR "no rperf-worker process row:\n${out2}")
endif()
if(NOT out2 MATCHES "recorded trace overhead:")
  message(FATAL_ERROR "no self-accounted overhead in trace meta:\n${out2}")
endif()
if(NOT out2 MATCHES "Top [0-9]+ regions by exclusive time")
  message(FATAL_ERROR "no top-regions table:\n${out2}")
endif()
if(NOT out2 MATCHES "Stream_TRIAD")
  message(FATAL_ERROR "top-regions table lacks the swept kernel:\n${out2}")
endif()

# Flamegraph mode: folded stacks rooted at the process name.
execute_process(
  COMMAND "${REPORT}" --trace "${WORKDIR}/out/trace.json" --flamegraph
  OUTPUT_VARIABLE out3
  RESULT_VARIABLE rc3)
if(NOT rc3 EQUAL 0)
  message(FATAL_ERROR "report --flamegraph: want exit 0, got ${rc3}:\n${out3}")
endif()
if(NOT out3 MATCHES "rajaperf;sweep")
  message(FATAL_ERROR "folded stacks lack the driver's sweep root:\n${out3}")
endif()
if(NOT out3 MATCHES "rperf-worker;")
  message(FATAL_ERROR "folded stacks lack worker frames:\n${out3}")
endif()

# Pooled phase: under --workers the supervisor admits cells by cores and
# tells each worker the team to run. The OpenMP cells must still get the
# in-process team of 2 (a worker shows an OpenMP thread row beside its
# main one), and every cell's checksum must equal an in-process run's.
foreach(mode pooled inproc)
  if(mode STREQUAL "pooled")
    set(extra --workers 2 --trace "${WORKDIR}/${mode}/trace.json")
  else()
    set(extra "")
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env OMP_NUM_THREADS=2
            "${RAJAPERF}" --kernels Basic_DAXPY,Stream_TRIAD
            --variants Base_Seq,RAJA_OpenMP --size-factor 0.01
            --outdir "${WORKDIR}/${mode}" ${extra}
    OUTPUT_VARIABLE out_${mode}
    RESULT_VARIABLE rc_${mode})
  if(NOT rc_${mode} EQUAL 0)
    message(FATAL_ERROR "${mode} run: want exit 0, got ${rc_${mode}}:\n"
                        "${out_${mode}}")
  endif()
  set(sums_${mode} "")
  file(STRINGS "${WORKDIR}/${mode}/progress.jsonl" lines)
  foreach(line IN LISTS lines)
    if(line MATCHES "\"checksum_hex\":\"([^\"]+)\".*\"kernel\":\"([^\"]+)\".*\"variant\":\"([^\"]+)\"")
      list(APPEND sums_${mode}
           "${CMAKE_MATCH_2}/${CMAKE_MATCH_3}=${CMAKE_MATCH_1}")
    endif()
  endforeach()
  list(SORT sums_${mode})
endforeach()
list(LENGTH sums_pooled n_pooled)
if(NOT n_pooled EQUAL 4)
  message(FATAL_ERROR "pooled run: want 4 cell checksums, got ${n_pooled}: "
                      "${sums_pooled}")
endif()
if(NOT sums_pooled STREQUAL sums_inproc)
  message(FATAL_ERROR "pooled checksums diverge from in-process:\n"
                      "in-process: ${sums_inproc}\npooled: ${sums_pooled}")
endif()

execute_process(
  COMMAND "${REPORT}" --trace "${WORKDIR}/pooled/trace.json"
  OUTPUT_VARIABLE out5
  RESULT_VARIABLE rc5)
if(NOT rc5 EQUAL 0)
  message(FATAL_ERROR "report --trace (pooled): exit ${rc5}:\n${out5}")
endif()
if(NOT out5 MATCHES "([0-9]+) processes, ([0-9]+) thread row")
  message(FATAL_ERROR "pooled trace summary lacks row counts:\n${out5}")
endif()
math(EXPR omp_rows "${CMAKE_MATCH_2} - ${CMAKE_MATCH_1}")
if(omp_rows LESS 1)
  message(FATAL_ERROR "pooled OpenMP cells ran without a team: "
                      "${CMAKE_MATCH_2} thread rows over ${CMAKE_MATCH_1} "
                      "processes:\n${out5}")
endif()
