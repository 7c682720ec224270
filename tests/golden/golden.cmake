# Runs one golden case and diffs its artifacts against the committed copy.
#
#   cmake -DNAME=<case> -DGOLDEN=<dir> -DWORK=<dir> -DCMD=<exe|arg|...>
#         [-DRUN_ENV=<VAR=value|...>] [-DSTDOUT=ON] -P golden.cmake
#
# The command runs in a fresh WORK directory, so every BENCH_*.json or
# --report-json file it writes lands there. With STDOUT=ON its standard
# output is kept as WORK/stdout. Every file left in WORK must then equal the
# file of the same name in GOLDEN, and GOLDEN may hold no file that WORK
# lacks. A command that exits non-zero fails the case before any diff.
# WORK is left in place, and WORK.ok names GOLDEN once the command succeeds;
# tests/golden/regen.cmake copies WORK over that directory.
cmake_minimum_required(VERSION 3.16)

foreach(var NAME GOLDEN WORK CMD)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden.cmake: -D${var}= is required")
  endif()
endforeach()

string(REPLACE "|" ";" cmd "${CMD}")
set(env "")
if(DEFINED RUN_ENV AND NOT RUN_ENV STREQUAL "")
  string(REPLACE "|" ";" env "${RUN_ENV}")
endif()

file(REMOVE_RECURSE "${WORK}")
file(REMOVE "${WORK}.ok")
file(MAKE_DIRECTORY "${WORK}")

# The bench knobs that redirect or add artifacts are cleared, so a caller's
# environment cannot change what lands in WORK.
set(run ${CMAKE_COMMAND} -E env --unset=NICBAR_BENCH_JSON_DIR --unset=NICBAR_METRICS_JSON
    ${env} ${cmd})
if(STDOUT)
  execute_process(COMMAND ${run} WORKING_DIRECTORY "${WORK}"
                  OUTPUT_FILE "${WORK}/stdout" ERROR_VARIABLE err RESULT_VARIABLE rc)
else()
  execute_process(COMMAND ${run} WORKING_DIRECTORY "${WORK}"
                  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "golden ${NAME}: command exited with ${rc}\n${err}")
endif()
file(WRITE "${WORK}.ok" "${GOLDEN}")

file(GLOB got RELATIVE "${WORK}" "${WORK}/*")
file(GLOB want RELATIVE "${GOLDEN}" "${GOLDEN}/*")
list(SORT got)
list(SORT want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "golden ${NAME}: artifacts differ by name\n"
                      "  committed: ${want}\n  produced : ${got}\n"
                      "Regenerate with: cmake -DBUILD_DIR=<build> -P tests/golden/regen.cmake")
endif()

set(mismatched "")
foreach(f IN LISTS got)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}/${f}" "${WORK}/${f}"
                  RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    list(APPEND mismatched "${f}")
    execute_process(COMMAND diff -u "${GOLDEN}/${f}" "${WORK}/${f}")
  endif()
endforeach()
if(mismatched)
  message(FATAL_ERROR "golden ${NAME}: ${mismatched} differ from ${GOLDEN} (diff above).\n"
                      "A change that moves a number regenerates the goldens in the same "
                      "commit: cmake -DBUILD_DIR=<build> -P tests/golden/regen.cmake")
endif()
