# Thread-count smoke: results must not depend on --threads.
#
#  - Figure 17's GC cells share one preconditioned image per GC
#    variant (DeviceArray restores it into every cell but the first).
#    Its CSV at --threads 1 and --threads 4 must match byte for byte
#    once the nondeterministic trailing cell_seconds column is
#    stripped.
#  - sprinkler_cli's five GC cells share one preconditioned image;
#    its table (a header and one row per scheduler) must match at
#    --threads 1 and --threads 4.
#
#   cmake -DEXHIBIT=<bench_exhibit> -DCLI=<sprinkler_cli> -DWORK_DIR=<dir>
#         -P threads_identical_smoke.cmake

file(MAKE_DIRECTORY ${WORK_DIR})

function(run)
  execute_process(COMMAND ${ARGN} OUTPUT_VARIABLE out
                  ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(JOIN " " args ${ARGN})
    message(FATAL_ERROR "${args}: exit ${rc}\n${out}${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

# The CSV at @p path without the last field of each line.
function(read_stripped path var)
  file(READ ${path} csv)
  string(REGEX REPLACE ",[^,\n]*\n" "\n" csv "${csv}")
  set(${var} "${csv}" PARENT_SCOPE)
endfunction()

foreach(threads 1 4)
  run(${EXHIBIT} fig17 --threads ${threads}
      --csv ${WORK_DIR}/fig17_t${threads}.csv)
  read_stripped(${WORK_DIR}/fig17_t${threads}.csv fig17_t${threads})
  run(${CLI} --sched all --gc --threads ${threads})
  set(cli_t${threads} "${out}")
endforeach()

string(REGEX MATCHALL "\n" rows "${fig17_t1}")
list(LENGTH rows rows)
if(rows LESS 2)
  message(FATAL_ERROR "fig17 CSV has ${rows} lines:\n${fig17_t1}")
endif()
if(NOT fig17_t1 STREQUAL fig17_t4)
  message(FATAL_ERROR "fig17 CSV differs between --threads 1 and 4:\n"
                      "${fig17_t1}\n---\n${fig17_t4}")
endif()

message("${cli_t1}")
string(REGEX MATCHALL "\n" lines "${cli_t1}")
list(LENGTH lines lines)
if(NOT lines EQUAL 6)
  message(FATAL_ERROR "sprinkler_cli table has ${lines} lines, not 6")
endif()
if(NOT cli_t1 STREQUAL cli_t4)
  message(FATAL_ERROR "sprinkler_cli table differs between --threads 1 "
                      "and 4:\n${cli_t1}\n---\n${cli_t4}")
endif()
