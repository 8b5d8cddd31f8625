# CLI transcript test: runs a fixed list of `headroom` invocations and
# compares each one's exit code, stdout, stderr and every file it wrote
# under --out with the committed goldens in tests/cli/transcript/.
#
#   cmake -DHEADROOM=<binary> -DSOURCE_DIR=<repo> -DWORK_DIR=<scratch dir>
#         [-DUPDATE=ON] -P tests/cli/cli_transcript.cmake
#
# UPDATE=ON rewrites the goldens instead of comparing. One golden file per
# invocation (`<name>.txt`):
#
#   $ headroom <args>
#   --- exit <code>
#   --- stdout
#   <stdout>
#   --- stderr
#   <stderr>
#   --- file <path> <bytes> <sha256>     (one line per file under --out)
#
# Usage errors print usage() after the message; the transcript writes that
# block as `[usage]` when it is byte-identical to this run's --help output
# (which the `help` golden pins in full). Every invocation runs inside
# WORK_DIR on relative paths, so no golden names a host path. Every
# invocation that steps a simulator passes --threads 1; a replay prints
# the recorded scenario's own count (1 in assert_fails.scn).
cmake_minimum_required(VERSION 3.20)

foreach(var HEADROOM SOURCE_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_transcript: -D${var}=... is required")
  endif()
endforeach()
set(golden_dir "${SOURCE_DIR}/tests/cli/transcript")

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/lib")
file(COPY "${SOURCE_DIR}/examples/scenarios/fault_gap_heal.scn"
          "${SOURCE_DIR}/examples/scenarios/standard_fleet_x100.scn"
     DESTINATION "${WORK_DIR}/lib")
file(COPY "${SOURCE_DIR}/examples/scenarios/fig6_flash_crowd.scn"
          "${golden_dir}/assert_fails.scn"
     DESTINATION "${WORK_DIR}")

set(usage_text "")
set(failures "")

# transcript(<name> [OUT <dir>] ARGS <arg>...)
function(transcript name)
  cmake_parse_arguments(PARSE_ARGV 1 T "" "OUT" "ARGS")
  execute_process(COMMAND "${HEADROOM}" ${T_ARGS}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(name STREQUAL "help")
    set(usage_text "${out}" PARENT_SCOPE)
  elseif(NOT usage_text STREQUAL "")
    string(REPLACE "${usage_text}" "[usage]\n" err "${err}")
  endif()

  list(JOIN T_ARGS " " shown)
  set(text "$ headroom ${shown}\n--- exit ${code}\n--- stdout\n")
  foreach(stream out err)
    string(APPEND text "${${stream}}")
    if(NOT "${${stream}}" STREQUAL "" AND NOT "${${stream}}" MATCHES "\n$")
      string(APPEND text "\n\\ no newline at end\n")
    endif()
    if(stream STREQUAL "out")
      string(APPEND text "--- stderr\n")
    endif()
  endforeach()
  if(DEFINED T_OUT)
    file(GLOB_RECURSE written LIST_DIRECTORIES false RELATIVE "${WORK_DIR}"
         "${WORK_DIR}/${T_OUT}/*")
    list(SORT written)
    foreach(path IN LISTS written)
      file(SIZE "${WORK_DIR}/${path}" bytes)
      file(SHA256 "${WORK_DIR}/${path}" digest)
      string(APPEND text "--- file ${path} ${bytes} ${digest}\n")
    endforeach()
  endif()

  set(golden "${golden_dir}/${name}.txt")
  if(UPDATE)
    file(WRITE "${golden}" "${text}")
    return()
  endif()
  set(expected "")
  if(EXISTS "${golden}")
    file(READ "${golden}" expected)
  endif()
  if(NOT text STREQUAL expected)
    file(WRITE "${WORK_DIR}/${name}.actual" "${text}")
    set(failures "${failures}  ${name}: diff -u ${golden} ${WORK_DIR}/${name}.actual\n"
        PARENT_SCOPE)
  endif()
endfunction()

transcript(help ARGS --help)
transcript(pipeline ARGS --fleet 24 --days 1 --seed 7 --threads 1)
transcript(list_scenarios ARGS list-scenarios --dir lib)
transcript(run_scenario ARGS run --scenario fig6_flash_crowd.scn --threads 1)
transcript(run_assert_fails
  ARGS run --scenario assert_fails.scn --threads 1)
transcript(export_trace OUT out/trace
  ARGS export-trace --scenario assert_fails.scn --out out/trace --threads 1)
transcript(run_trace ARGS run --trace out/trace)
transcript(serve_degraded OUT out/serve
  ARGS serve --scenario lib/fault_gap_heal.scn --out out/serve --threads 1
       --quiet)
transcript(bakeoff_dir OUT out/bakeoff
  ARGS bakeoff --dir lib --out out/bakeoff --threads 1)
transcript(bakeoff_scenario
  ARGS bakeoff --scenario lib/fault_gap_heal.scn --threads 1 --quiet)
transcript(plan_dir OUT out/plan
  ARGS plan --dir lib --out out/plan --threads 1)
transcript(plan_trace ARGS plan --trace out/trace --quiet)

transcript(error_unknown_command ARGS frobnicate)
transcript(error_pipeline_flag ARGS --bogus)
transcript(error_run_flag ARGS run --fleet 3)
transcript(error_export_trace_flag ARGS export-trace --follow)
transcript(error_serve_flag ARGS serve --dir lib)
transcript(error_bakeoff_flag ARGS bakeoff --trace out/trace)
transcript(error_plan_flag ARGS plan --follow)
transcript(error_list_scenarios_flag ARGS list-scenarios --scenario x.scn)
transcript(error_missing_value ARGS serve --scenario)
transcript(error_bad_count ARGS --fleet 0)
transcript(error_scenario_and_trace
  ARGS run --scenario fig6_flash_crowd.scn --trace out/trace)
transcript(error_missing_file ARGS run --scenario missing.scn)

if(UPDATE)
  message(STATUS "cli_transcript: goldens rewritten in ${golden_dir}")
elseif(NOT failures STREQUAL "")
  message(FATAL_ERROR "cli_transcript: output differs from the goldens:\n"
                      "${failures}")
endif()
