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

# A non-numeric or out-of-range value for a numeric option is a usage
# error (exit 2) that names the option, in every mode that takes one,
# before any input is read (the store paths below do not exist).
foreach(case
        "--top|--trace;${WORKDIR}/trace.json;--top;ten"
        "--top|--store;${WORKDIR}/store;--top;ten"
        "--threads|--store;${WORKDIR}/store;--threads;four"
        "--threshold|${WORKDIR}/profiles;--compare;${WORKDIR}/profiles;--threshold;high"
        "--threshold|${WORKDIR}/profiles;--compare;${WORKDIR}/profiles;--threshold;0.5"
        "--threshold|${WORKDIR}/profiles;--compare;${WORKDIR}/profiles;--threshold;nan"
        "--threshold|${WORKDIR}/profiles;--compare;${WORKDIR}/profiles;--threshold;inf"
        "--threshold|--store;${WORKDIR}/store;--run;x;--compare;y;--threshold;0.5")
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
  if(NOT out_bad STREQUAL "")
    message(FATAL_ERROR "bad ${flag} printed output before failing:\n${out_bad}")
  endif()
endforeach()

# --help prints the usage on stdout and exits 0; the usage lists the
# shared analysis flags.
execute_process(
  COMMAND "${REPORT}" --help
  OUTPUT_VARIABLE help_out
  RESULT_VARIABLE rc_help)
if(NOT rc_help EQUAL 0 OR NOT help_out MATCHES "--compare")
  message(FATAL_ERROR "--help: want exit 0 and a usage naming --compare, "
                      "got ${rc_help}:\n${help_out}")
endif()

# Every flag is parsed before anything renders: flag order never changes
# the output, and --groupby renders the --metric it was given.
foreach(order "--groupby;variant;--metric;flops" "--metric;flops;--groupby;variant"
              "--groupby;variant")
  execute_process(
    COMMAND "${REPORT}" "${WORKDIR}/profiles" ${order}
    OUTPUT_VARIABLE order_out
    RESULT_VARIABLE rc_order)
  if(NOT rc_order EQUAL 0)
    message(FATAL_ERROR "${order}: want exit 0, got ${rc_order}:\n${order_out}")
  endif()
  string(REPLACE ";" "" key "${order}")
  set(out_${key} "${order_out}")
endforeach()
if(NOT out_--groupbyvariant--metricflops STREQUAL out_--metricflops--groupbyvariant)
  message(FATAL_ERROR "flag order changed the output:\n"
                      "${out_--groupbyvariant--metricflops}\n---\n"
                      "${out_--metricflops--groupbyvariant}")
endif()
if(out_--groupbyvariant--metricflops STREQUAL out_--groupbyvariant)
  message(FATAL_ERROR "--groupby ignored --metric flops:\n${out_--groupbyvariant}")
endif()

# --groupby works with every view: a comparison renders once per group.
execute_process(
  COMMAND "${REPORT}" "${WORKDIR}/profiles" --compare "${WORKDIR}/profiles"
          --groupby variant
  OUTPUT_VARIABLE cmp_out
  RESULT_VARIABLE rc_cmp)
if(NOT rc_cmp EQUAL 0)
  message(FATAL_ERROR "self --compare --groupby: want exit 0, got ${rc_cmp}:\n${cmp_out}")
endif()
string(REGEX MATCHALL "nodes outside" cmp_groups "${cmp_out}")
list(LENGTH cmp_groups n_cmp_groups)
if(NOT cmp_out MATCHES "=== variant = Base_Seq ===" OR n_cmp_groups LESS 2)
  message(FATAL_ERROR "--compare --groupby did not compare per group:\n${cmp_out}")
endif()

# An empty answer is an error: --stats with no values exits 1, a --groupby
# key no profile carries exits 2, and so does asking for two views.
foreach(case "1|--stats;NoSuch;time" "2|--groupby;bogus"
             "2|--hwc;--stats;Stream_TRIAD;time"
             "2|--stats;Stream_TRIAD;time;--compare;${WORKDIR}/profiles")
  string(REPLACE "|" ";" parts "${case}")
  list(POP_FRONT parts want)
  execute_process(
    COMMAND "${REPORT}" "${WORKDIR}/profiles" ${parts}
    OUTPUT_VARIABLE out_empty
    ERROR_VARIABLE err_empty
    RESULT_VARIABLE rc_empty)
  if(NOT rc_empty EQUAL want)
    message(FATAL_ERROR
      "${parts}: want exit ${want}, got ${rc_empty}:\n${out_empty}\n${err_empty}")
  endif()
endforeach()

# A summary value that is not a number is corrupt profile data too: exit
# 5 with a message naming the key, in a copy whose profiles all read
# pool_alloc_calls "many".
set(badmeta "${WORKDIR}/badmeta")
file(REMOVE_RECURSE "${badmeta}")
file(GLOB profiles "${WORKDIR}/profiles/*.cali.json")
foreach(profile ${profiles})
  get_filename_component(base "${profile}" NAME)
  file(READ "${profile}" text)
  string(REGEX REPLACE "\"pool_alloc_calls\": \"[0-9]+\""
         "\"pool_alloc_calls\": \"many\"" text "${text}")
  if(NOT text MATCHES "\"pool_alloc_calls\": \"many\"")
    message(FATAL_ERROR "${base} carries no pool_alloc_calls to corrupt")
  endif()
  file(WRITE "${badmeta}/${base}" "${text}")
endforeach()
execute_process(
  COMMAND "${REPORT}" "${badmeta}"
  OUTPUT_VARIABLE out_meta
  ERROR_VARIABLE err_meta
  RESULT_VARIABLE rc_meta)
if(NOT rc_meta EQUAL 5)
  message(FATAL_ERROR
    "non-numeric metadata: want exit 5, got ${rc_meta}:\n${out_meta}\n${err_meta}")
endif()
if(NOT err_meta MATCHES "corrupt profile data.*pool_alloc_calls")
  message(FATAL_ERROR "non-numeric metadata names no key:\n${err_meta}")
endif()

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
