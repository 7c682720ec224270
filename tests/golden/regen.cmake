# Regenerates every golden under tests/golden/ from a built tree:
#
#   cmake -DBUILD_DIR=build -P tests/golden/regen.cmake
#
# Runs `ctest -L tier1_golden` in BUILD_DIR (mismatches are expected here and
# ignored), then copies each case whose command succeeded from
# BUILD_DIR/tests/golden/<case>/ over the golden directory its marker names
# (tests/golden/<case>/ unless the case shares one). Review the
# resulting `git diff tests/golden` before committing: a golden moves only
# with a change that means to move it.
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED BUILD_DIR)
  set(BUILD_DIR build)
endif()
get_filename_component(build "${BUILD_DIR}" ABSOLUTE)
get_filename_component(here "${CMAKE_CURRENT_LIST_DIR}" ABSOLUTE)
get_filename_component(bindir "${CMAKE_COMMAND}" DIRECTORY)
find_program(ctest NAMES ctest HINTS "${bindir}")
if(NOT ctest)
  message(FATAL_ERROR "ctest not found next to ${CMAKE_COMMAND}")
endif()

execute_process(COMMAND "${ctest}" -L tier1_golden -j 4 WORKING_DIRECTORY "${build}"
                OUTPUT_QUIET)

file(GLOB markers "${build}/tests/golden/*.ok")
if(NOT markers)
  message(FATAL_ERROR "no golden case ran in ${build}; build the tree first")
endif()
foreach(marker IN LISTS markers)
  get_filename_component(name "${marker}" NAME_WE)
  file(READ "${marker}" golden)
  if(golden STREQUAL "")
    set(golden "${here}/${name}")
  endif()
  file(REMOVE_RECURSE "${golden}")
  file(COPY "${build}/tests/golden/${name}/" DESTINATION "${golden}")
  message(STATUS "golden ${name} regenerated into ${golden}")
endforeach()
