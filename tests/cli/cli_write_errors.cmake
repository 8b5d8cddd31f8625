# A report the CLI cannot write must fail the command: exit 2 with
# `headroom: cannot write 'PATH'` on stderr, even when the report is far
# smaller than the stream's buffer (so the error only surfaces when the
# bytes are flushed). Each case points one --out file at /dev/full, where
# every write fails with ENOSPC, and runs the command that writes it.
#
#   cmake -DHEADROOM=<binary> -DSOURCE_DIR=<repo> -DWORK_DIR=<scratch dir>
#         -DCASE=summary|health|windows_log|manifest|frontier|plan
#         -P tests/cli/cli_write_errors.cmake
#
# Prints "SKIP:" and returns when the host has no /dev/full.
cmake_minimum_required(VERSION 3.20)

foreach(var HEADROOM SOURCE_DIR WORK_DIR CASE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_write_errors: -D${var}=... is required")
  endif()
endforeach()
if(NOT EXISTS /dev/full)
  message("SKIP: /dev/full is absent")
  return()
endif()

set(scn fault_gap_heal.scn)
set(serve serve --scenario ${scn} --out out --threads 1 --quiet)
if(CASE STREQUAL "summary")
  set(file summary.txt)
  set(command ${serve})
elseif(CASE STREQUAL "health")
  set(file health.txt)
  set(command ${serve})
elseif(CASE STREQUAL "windows_log")
  set(file windows.log)
  set(command ${serve})
elseif(CASE STREQUAL "manifest")
  set(file manifest.ini)
  set(command export-trace --scenario ${scn} --out out --threads 1 --quiet)
elseif(CASE STREQUAL "frontier")
  set(file fault_gap_heal.frontier)
  set(command bakeoff --scenario ${scn} --out out --threads 1 --quiet)
elseif(CASE STREQUAL "plan")
  set(file fault_gap_heal.plan)
  set(command plan --scenario ${scn} --out out --threads 1 --quiet)
else()
  message(FATAL_ERROR "cli_write_errors: unknown CASE '${CASE}'")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/out")
file(COPY "${SOURCE_DIR}/examples/scenarios/${scn}" DESTINATION "${WORK_DIR}")
file(CREATE_LINK /dev/full "${WORK_DIR}/out/${file}" SYMBOLIC)

execute_process(COMMAND "${HEADROOM}" ${command}
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(expected "headroom: cannot write 'out/${file}'\n")
if(NOT code EQUAL 2 OR NOT err STREQUAL expected)
  list(JOIN command " " shown)
  message(FATAL_ERROR "cli_write_errors: `headroom ${shown}` with "
                      "out/${file} -> /dev/full\n"
                      "  expected exit 2 and stderr: ${expected}"
                      "  got exit ${code} and stderr: ${err}")
endif()
