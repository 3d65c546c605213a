# Ablation smoke: run every design-choice ablation row that
# `bench_exhibit --help` lists (ablation-faro, ablation-decision, ...)
# at --threads 2; each must exit 0.
#
#   cmake -DEXHIBIT=<bench_exhibit> -P ablation_smoke.cmake

execute_process(COMMAND ${EXHIBIT} --help OUTPUT_VARIABLE help
                RESULT_VARIABLE rc)
string(REGEX MATCHALL "ablation-[a-z]+" rows "${help}")
list(LENGTH rows count)
if(NOT rc EQUAL 0 OR count LESS 4)
  message(FATAL_ERROR "--help (exit ${rc}) lists ${count} ablation rows, "
                      "expected 4 or more:\n${help}")
endif()

foreach(row ${rows})
  execute_process(COMMAND ${EXHIBIT} ${row} --threads 2
                  OUTPUT_VARIABLE out ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  message("${out}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_exhibit ${row} --threads 2: exit ${rc}\n"
                        "${out}${err}")
  endif()
endforeach()
