# Reruns the six simulator figure benches at their default scale and
# compares every CSV they write, byte for byte, with the committed copy in
# results/. The simulator is deterministic, so a difference is a change in
# modeled behaviour: regenerate the committed CSVs (`<bench> --csv-dir
# results`) only when that change is meant.
#
#   cmake -DBENCH_DIR=<bench binaries> -DOUT_DIR=<scratch dir>
#         -DGOLDEN_DIR=<committed results dir> -P golden_figures.cmake
foreach(var BENCH_DIR OUT_DIR GOLDEN_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_figures.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
foreach(bench fig4_response_vs_threads fig5_overlap_vs_dsmem
              fig6_response_vs_dsmem fig7_batch_total_time fig_caching_effect
              fig_fairness)
  execute_process(COMMAND "${BENCH_DIR}/${bench}" --csv-dir "${OUT_DIR}"
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} exited with ${rc}")
  endif()
endforeach()

file(GLOB produced RELATIVE "${OUT_DIR}" "${OUT_DIR}/*.csv")
file(GLOB committed RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/fig*.csv")
list(SORT produced)
list(SORT committed)
if(NOT produced STREQUAL committed)
  message(FATAL_ERROR "figure CSV set differs from ${GOLDEN_DIR}:\n"
                      "  produced:  ${produced}\n  committed: ${committed}")
endif()
set(differing "")
foreach(csv IN LISTS produced)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${OUT_DIR}/${csv}" "${GOLDEN_DIR}/${csv}"
                  RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    list(APPEND differing "${csv}")
  endif()
endforeach()
if(differing)
  list(JOIN differing "\n  " lines)
  message(FATAL_ERROR "figure CSVs differ from ${GOLDEN_DIR}:\n  ${lines}")
endif()
list(LENGTH produced n)
message(STATUS "${n} figure CSVs byte-identical to ${GOLDEN_DIR}")
