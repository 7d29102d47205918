# The acceptance scenario for the supervised worker pool: a sweep at
# --workers=4 with process-fatal faults (SIGSEGV + a hang) must complete
# with the crashes contained, crashed cells retried on recycled workers,
# the hung cell killed by the central deadline, forensics on record, and
# the exit code flagging the contained failure (4). A --resume run without
# faults re-runs only what did not pass under the default deadline, and
# rperf-report surfaces both the pool summary and the crash history, also
# for profiles written before the heartbeat was removed.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(
  COMMAND "${RAJAPERF}" --kernels Basic_DAXPY,Stream_TRIAD,Stream_ADD
          --variants Base_Seq,Lambda_Seq --size-factor 0.01
          --isolate cell --workers 4 --retries 1
          --faults segv@Basic_DAXPY:1,hang@Stream_ADD:1
          --max-cell-seconds 3 --outdir "${WORKDIR}/out"
  OUTPUT_VARIABLE out1
  RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 4)
  message(FATAL_ERROR "fault run: want exit 4, got ${rc1}:\n${out1}")
endif()
# The segv cell was retried on a fresh worker and passed; only the hung
# cell (deadline kill, not retryable) remains non-passed.
if(NOT out1 MATCHES "Killed Stream_ADD")
  message(FATAL_ERROR "hang was not deadline-killed:\n${out1}")
endif()
if(out1 MATCHES "Crashed Basic_DAXPY")
  message(FATAL_ERROR "segv cell was not recovered by retry:\n${out1}")
endif()
if(NOT out1 MATCHES "workers: 4 pooled, deadline 3 s,")
  message(FATAL_ERROR "no pool summary with the deadline printed:\n${out1}")
endif()
if(NOT out1 MATCHES "recycled")
  message(FATAL_ERROR "pool summary lacks recycle accounting:\n${out1}")
endif()
if(NOT EXISTS "${WORKDIR}/out/crashes.jsonl")
  message(FATAL_ERROR "no crashes.jsonl written")
endif()
file(READ "${WORKDIR}/out/crashes.jsonl" crashes)
if(NOT crashes MATCHES "worker-died")
  message(FATAL_ERROR "crashes.jsonl lacks the pool failure reason:\n${crashes}")
endif()

# Resume without faults: passed cells restore, the killed cell re-runs
# and passes, exit goes clean.
execute_process(
  COMMAND "${RAJAPERF}" --kernels Basic_DAXPY,Stream_TRIAD,Stream_ADD
          --variants Base_Seq,Lambda_Seq --size-factor 0.01
          --isolate cell --workers 4 --resume --outdir "${WORKDIR}/out"
  OUTPUT_VARIABLE out2
  RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "resume run: want exit 0, got ${rc2}:\n${out2}")
endif()
if(NOT out2 MATCHES "restored from checkpoint")
  message(FATAL_ERROR "resume run restored nothing:\n${out2}")
endif()
# No --max-cell-seconds: every isolated cell still has a deadline.
if(NOT out2 MATCHES "workers: 4 pooled, deadline 60 s,")
  message(FATAL_ERROR "resume run lacks the default deadline:\n${out2}")
endif()

# rperf-report shows the pool supervision summary alongside the crash
# history (exit 4 keeps CI honest about contained crashes).
execute_process(
  COMMAND "${REPORT}" "${WORKDIR}/out"
  OUTPUT_VARIABLE out3
  RESULT_VARIABLE rc3)
if(NOT rc3 EQUAL 4)
  message(FATAL_ERROR "report: want exit 4 for crash records, got ${rc3}:\n${out3}")
endif()
if(NOT out3 MATCHES "workers: 4 pooled")
  message(FATAL_ERROR "report lacks the pool summary:\n${out3}")
endif()
if(NOT out3 MATCHES "Crash summary")
  message(FATAL_ERROR "report printed no crash summary:\n${out3}")
endif()

# Profiles written before the heartbeat was removed carry a
# pool_heartbeat_timeouts key; the report still renders them.
file(GLOB profiles "${WORKDIR}/out/*.cali.json")
list(GET profiles 0 profile)
file(READ "${profile}" text)
string(REPLACE "\"pool_deadline_kills\""
       "\"pool_heartbeat_timeouts\": \"1\", \"pool_deadline_kills\""
       text "${text}")
if(NOT text MATCHES "pool_heartbeat_timeouts")
  message(FATAL_ERROR "could not plant the old metadata key in ${profile}")
endif()
file(WRITE "${profile}" "${text}")
execute_process(
  COMMAND "${REPORT}" "${WORKDIR}/out"
  OUTPUT_VARIABLE out4
  RESULT_VARIABLE rc4)
if(NOT rc4 EQUAL 4)
  message(FATAL_ERROR "old-profile report: want exit 4, got ${rc4}:\n${out4}")
endif()
if(NOT out4 MATCHES "workers: 4 pooled, [0-9]+ spawned")
  message(FATAL_ERROR "old-profile report lacks the pool summary:\n${out4}")
endif()
