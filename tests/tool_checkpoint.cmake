# The append-only progress.jsonl checkpoint at the CLI, through its two
# failure modes:
#   1. A torn final record (a run killed mid-append) is warned about and
#      dropped by --resume; the complete records are restored, the torn
#      record's cell re-runs, and the resumed run leaves a checkpoint in
#      which every line parses (run start truncates, so no record is ever
#      appended after the tear).
#   2. A failed durability barrier (fsyncfail@progress) fails the run the
#      way an unwritable checkpoint does: exit 5 and "error: cannot write
#      progress file" on stderr.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(progress "${WORKDIR}/out/progress.jsonl")

# Every line of the checkpoint must parse as a JSON object.
function(expect_all_lines_parse path want_lines)
  file(STRINGS "${path}" lines)
  list(LENGTH lines n)
  if(NOT n EQUAL want_lines)
    message(FATAL_ERROR "${path}: want ${want_lines} records, got ${n}")
  endif()
  foreach(line IN LISTS lines)
    string(JSON type ERROR_VARIABLE err TYPE "${line}")
    if(err OR NOT type STREQUAL "OBJECT")
      message(FATAL_ERROR "${path}: unparseable record: ${line}\n${err}")
    endif()
  endforeach()
endfunction()

# ----- 1. torn tail -----
execute_process(
  COMMAND "${RAJAPERF}" --kernels Basic_DAXPY,Stream_TRIAD
          --size-factor 0.01 --outdir "${WORKDIR}/out"
  OUTPUT_VARIABLE out1
  ERROR_VARIABLE err1
  RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "first run: want exit 0, got ${rc1}:\n${out1}${err1}")
endif()
expect_all_lines_parse("${progress}" 12)

# Replace the final record with its first half, as a run killed in the
# middle of that append leaves it.
file(STRINGS "${progress}" lines)
list(POP_BACK lines last)
string(JSON torn_kernel GET "${last}" kernel)
string(JSON torn_variant GET "${last}" variant)
string(LENGTH "${last}" len)
math(EXPR half "${len} / 2")
string(SUBSTRING "${last}" 0 ${half} torn)
list(JOIN lines "\n" kept)
file(WRITE "${progress}" "${kept}\n${torn}")

execute_process(
  COMMAND "${RAJAPERF}" --kernels Basic_DAXPY,Stream_TRIAD
          --size-factor 0.01 --resume --outdir "${WORKDIR}/out"
  OUTPUT_VARIABLE out2
  ERROR_VARIABLE err2
  RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "resume: want exit 0, got ${rc2}:\n${out2}${err2}")
endif()
if(NOT err2 MATCHES "progress.jsonl:12: dropping truncated checkpoint record")
  message(FATAL_ERROR "resume did not warn about the torn record:\n${err2}")
endif()
if(NOT out2 MATCHES "\\(11 restored from checkpoint\\)")
  message(FATAL_ERROR "resume did not restore the 11 complete records:\n"
                      "${out2}")
endif()
# The torn record's cell re-ran and has a complete record again.
expect_all_lines_parse("${progress}" 12)
file(STRINGS "${progress}" lines)
set(found FALSE)
foreach(line IN LISTS lines)
  string(JSON k GET "${line}" kernel)
  string(JSON v GET "${line}" variant)
  string(JSON s GET "${line}" status)
  if(k STREQUAL torn_kernel AND v STREQUAL torn_variant)
    if(NOT s STREQUAL "Passed")
      message(FATAL_ERROR "re-run ${k}/${v} recorded status ${s}")
    endif()
    set(found TRUE)
  endif()
endforeach()
if(NOT found)
  message(FATAL_ERROR
    "no record for the torn cell ${torn_kernel}/${torn_variant}")
endif()

# ----- 2. failed barrier -----
execute_process(
  COMMAND "${RAJAPERF}" --kernels Basic_DAXPY --variants Base_Seq
          --size-factor 0.01 --faults fsyncfail@progress:1
          --outdir "${WORKDIR}/fsync"
  OUTPUT_VARIABLE out3
  ERROR_VARIABLE err3
  RESULT_VARIABLE rc3)
if(NOT rc3 EQUAL 5)
  message(FATAL_ERROR "fsyncfail run: want exit 5, got ${rc3}:\n${out3}${err3}")
endif()
if(NOT err3 MATCHES "^error: cannot write progress file")
  message(FATAL_ERROR "fsyncfail run: unexpected stderr:\n${err3}")
endif()
