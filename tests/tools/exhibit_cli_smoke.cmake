# Exhibit-name smoke: bench_exhibit must exit 2 without a row name
# and with an unknown one, list each of its 18 rows exactly once
# under --help (exit 0), and exit 2 when a row is given a shared
# option it does not take: Table 1 simulates nothing, so it takes no
# --threads, and the estimator can show neither fig18's arbiters nor
# fig19's faults, so they take no --fidelity. Calibration's --filter
# keeps exhibits by name, not axis values, and its help says so.
#
#   cmake -DEXHIBIT=<bench_exhibit> -P exhibit_cli_smoke.cmake

function(expect_exit code)
  execute_process(COMMAND ${EXHIBIT} ${ARGN}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL code)
    string(JOIN " " args ${ARGN})
    message(FATAL_ERROR "bench_exhibit ${args}: exit ${rc}, expected "
                        "${code}\n${out}${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
  set(err "${err}" PARENT_SCOPE)
endfunction()

expect_exit(2)
expect_exit(2 bogus)
if(NOT err MATCHES "unknown exhibit 'bogus'")
  message(FATAL_ERROR "no error naming 'bogus':\n${err}")
endif()
expect_exit(2 table1 --threads 2)
if(NOT err MATCHES "unknown option --threads")
  message(FATAL_ERROR "no error naming --threads:\n${err}")
endif()
expect_exit(2 fig18 --fidelity fast)
expect_exit(2 fig19 --fidelity fast --filter parity=off)
if(NOT err MATCHES "unknown option --fidelity")
  message(FATAL_ERROR "no error naming --fidelity:\n${err}")
endif()

expect_exit(0 calibration --help)
set(help "--filter SUBSTR +keep the exhibits whose name contains SUBSTR")
if(NOT out MATCHES "${help}" OR out MATCHES "keep axis values")
  message(FATAL_ERROR "calibration --help misdescribes --filter:\n${out}")
endif()
expect_exit(1 calibration --filter hm)
if(NOT err MATCHES "--filter hm matches no exhibit")
  message(FATAL_ERROR "no error naming the filter:\n${err}")
endif()

expect_exit(0 --help)
message("${out}")
foreach(name table1 fig01 fig06 fig10 fig11 fig12 fig13 fig14 fig15
             fig16 fig17 fig18 fig19 ablation-faro ablation-decision
             ablation-depth ablation-alloc calibration)
  string(REGEX MATCHALL "(^|[^a-z0-9])${name}([^a-z0-9]|$)" hits
         "${out}")
  list(LENGTH hits count)
  if(NOT count EQUAL 1)
    message(FATAL_ERROR "--help lists ${name} ${count} times")
  endif()
endforeach()
