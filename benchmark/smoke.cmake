# ctest benchmark_smoke: runs every workload once in --smoke mode (tiny
# corpus, 2 s in all, traced). The binary itself fails when a metric the
# workload defines is missing or when an oracle check mismatches.
foreach(workload hot_zipf cold_pool ingest_rw cluster4)
  execute_process(
    COMMAND ${BENCH} --workload ${workload} --seed 1 --smoke
            --data-dir ${WORK_DIR}/data
            --out ${WORK_DIR}/${workload}.json
            --trace ${WORK_DIR}/${workload}.spans.json
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "smoke run of ${workload} failed (exit ${rc})")
  endif()
endforeach()
