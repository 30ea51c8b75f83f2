# CTest script: perf smoke of the GEMM compute path. Runs quickstart (tiny
# fast model, weights cached between the two runs) twice -- first with
# DCDIFF_GEMM_NAIVE=1 (reference GEMM loop), then with the blocked kernel --
# writing a DCDIFF_BENCH_JSON report for each. Validates that both reports
# exist, parse as JSON, and carry a positive receiver-seconds record plus the
# nn.workspace metrics gauge. The JSONs land in WORK_DIR as naive.json /
# blocked.json; the smoke only asserts structure, not a speedup ratio
# (tiny-model times are noise-dominated on loaded CI hosts).
#
# Invoked as:
#   cmake -DQUICKSTART=<path-to-binary> -DWORK_DIR=<scratch-dir>
#         -P perf_smoke_test.cmake

if(NOT QUICKSTART)
  message(FATAL_ERROR "QUICKSTART binary path not set")
endif()
if(NOT WORK_DIR)
  message(FATAL_ERROR "WORK_DIR not set")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_quickstart json_path naive)
  file(REMOVE "${json_path}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            "DCDIFF_QUICKSTART_FAST=1"
            "DCDIFF_CACHE_DIR=${WORK_DIR}/weights"
            "DCDIFF_BENCH_JSON=${json_path}"
            "DCDIFF_GEMM_NAIVE=${naive}"
            "DCDIFF_LOG_LEVEL=warn"
            "${QUICKSTART}"
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE run_result
    OUTPUT_VARIABLE run_output
    ERROR_VARIABLE run_errors)
  if(NOT run_result EQUAL 0)
    message(FATAL_ERROR "quickstart (DCDIFF_GEMM_NAIVE=${naive}) exited with "
                        "${run_result}\nstdout:\n${run_output}\n"
                        "stderr:\n${run_errors}")
  endif()
  if(NOT EXISTS "${json_path}")
    message(FATAL_ERROR "quickstart did not write ${json_path}\n"
                        "stdout:\n${run_output}")
  endif()
endfunction()

# Validates one report: JSON parses, has >= 1 record with seconds > 0.
function(check_report json_path expect_workspace)
  file(READ "${json_path}" content)
  if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
    string(JSON n_records ERROR_VARIABLE json_err LENGTH "${content}" records)
    if(json_err)
      message(FATAL_ERROR "${json_path} is not valid JSON: ${json_err}")
    endif()
    if(n_records LESS 1)
      message(FATAL_ERROR "${json_path} has no records")
    endif()
    string(JSON seconds GET "${content}" records 0 seconds)
    if(seconds LESS_EQUAL 0)
      message(FATAL_ERROR "${json_path}: non-positive receiver seconds "
                          "(${seconds})")
    endif()
    message(STATUS "${json_path}: receiver ${seconds}s over ${n_records} "
                   "record(s)")
  endif()
  if(expect_workspace)
    # The blocked path must have gone through the scratch arena.
    string(FIND "${content}" "nn.workspace.bytes_peak" pos)
    if(pos EQUAL -1)
      message(FATAL_ERROR "${json_path} is missing the "
                          "nn.workspace.bytes_peak gauge: the GEMM path did "
                          "not run through the workspace arena")
    endif()
  endif()
endfunction()

# Naive first: its (cold) run also trains/caches the tiny model, so the
# blocked-path run below measures inference only.
run_quickstart("${WORK_DIR}/naive.json" 1)
check_report("${WORK_DIR}/naive.json" FALSE)

run_quickstart("${WORK_DIR}/blocked.json" 0)
check_report("${WORK_DIR}/blocked.json" TRUE)

message(STATUS "perf smoke OK: ${WORK_DIR}/blocked.json")
