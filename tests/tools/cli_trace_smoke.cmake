# Trace smoke: runs sprinkler_cli on the checked-in MSR sample trace at
# 8 chips with every scheduler, and fails unless it exits 0 and prints
# one row per scheduler, not all of them equal. At 64 chips the
# 64-record sample never loads the device enough to separate the
# schedulers, so equal rows there showed only that the path ran.
#
#   cmake -DCLI=<sprinkler_cli> -DTRACE=<msr_sample.csv> \
#         -P cli_trace_smoke.cmake

execute_process(
  COMMAND ${CLI} --trace-file ${TRACE} --sched all --chips 8 --threads 2
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sprinkler_cli exited with ${rc}")
endif()

# A row is the scheduler's name, then its metrics.
string(REGEX MATCHALL "(VAS|PAS|SPK[123]) +[^\n]*" rows "${out}")
list(LENGTH rows count)
if(NOT count EQUAL 5)
  message(FATAL_ERROR "expected 5 scheduler rows, got ${count}")
endif()
set(metrics "")
foreach(row IN LISTS rows)
  string(REGEX REPLACE "^[A-Z0-9]+ +" "" values "${row}")
  list(APPEND metrics "${values}")
endforeach()
list(REMOVE_DUPLICATES metrics)
list(LENGTH metrics distinct)
if(distinct EQUAL 1)
  message(FATAL_ERROR "all five schedulers printed the same row")
endif()
