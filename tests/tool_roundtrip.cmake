# End-to-end tool test: run the suite, write profiles, query them back.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(
  COMMAND "${RAJAPERF}" --kernels Stream_TRIAD,Basic_DAXPY
          --size-factor 0.01 --outdir "${WORKDIR}/profiles"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rajaperf failed: ${rc}")
endif()
execute_process(
  COMMAND "${REPORT}" "${WORKDIR}/profiles" --groupby variant
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rperf-report failed: ${rc}")
endif()
foreach(needle "Stream_TRIAD" "Basic_DAXPY" "RAJA_OpenMP")
  if(NOT out MATCHES "${needle}")
    message(FATAL_ERROR "report missing ${needle}:\n${out}")
  endif()
endforeach()

# A non-numeric value for a numeric option is a usage error (exit 2)
# that names the option, in every mode that takes one.
foreach(case
        "--top|--trace;${WORKDIR}/trace.json;--top;ten"
        "--top|--store;${WORKDIR}/store;--top;ten"
        "--topn|--store;${WORKDIR}/store;--topn;ten"
        "--threads|--store;${WORKDIR}/store;--threads;four"
        "--threshold|${WORKDIR}/profiles;--compare;${WORKDIR}/profiles;--threshold;high")
  string(REPLACE "|" ";" parts "${case}")
  list(POP_FRONT parts flag)
  execute_process(
    COMMAND "${REPORT}" ${parts}
    OUTPUT_VARIABLE out_bad
    ERROR_VARIABLE err_bad
    RESULT_VARIABLE rc_bad)
  if(NOT rc_bad EQUAL 2)
    message(FATAL_ERROR
      "non-numeric ${flag}: want exit 2, got ${rc_bad}:\n${out_bad}\n${err_bad}")
  endif()
  if(NOT err_bad MATCHES "${flag} wants a number")
    message(FATAL_ERROR "non-numeric ${flag}: message names no flag:\n${err_bad}")
  endif()
endforeach()

# A profile corrupted beyond repair (unparseable JSON) must map to the
# documented exit 5 — distinct from exit 1 (read error) and exit 4
# (crash records) — so CI can tell data loss from ordinary failures.
file(GLOB profiles "${WORKDIR}/profiles/*.cali.json")
list(GET profiles 0 victim)
file(WRITE "${victim}" "{\"metadata\": {\"truncated mid-write")
execute_process(
  COMMAND "${REPORT}" "${WORKDIR}/profiles"
  OUTPUT_VARIABLE out_corrupt
  ERROR_VARIABLE err_corrupt
  RESULT_VARIABLE rc_corrupt)
if(NOT rc_corrupt EQUAL 5)
  message(FATAL_ERROR
    "corrupt profile: want exit 5, got ${rc_corrupt}:\n${out_corrupt}\n${err_corrupt}")
endif()
if(NOT err_corrupt MATCHES "corrupt profile data")
  message(FATAL_ERROR "corrupt profile diagnostic missing:\n${err_corrupt}")
endif()
