# Byte-for-byte check of the dispatch-path tables against the goldens in
# tests/data: E18 (every fleet dispatch policy under plant outages and a
# maintenance window), E19 (the serving loop under round-robin,
# least-queued and availability), E20 (the serving loop's TE optical
# substrate in DHL-only, optical-only and hybrid modes) and
# des_validation (whose fleet section runs DhlFleet::runBulkTransfer for
# K = 1..6).
#
#   cmake -DE18=<reliability_validation> -DE19=<serving_study>
#         -DE20=<hybrid_te_study> -DDES=<des_validation>
#         -DDATA=<tests/data> -DOUT=<output dir> -P golden_tables.cmake

function(check_golden name golden)
    set(out ${OUT}/${name})
    execute_process(COMMAND ${ARGN}
        OUTPUT_FILE ${out}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name}: '${ARGN}' exited with ${rc}")
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
        ${out} ${DATA}/${golden}
        RESULT_VARIABLE differs)
    if(differs)
        message(FATAL_ERROR
            "${name}: output ${out} differs from ${DATA}/${golden}")
    endif()
    message(STATUS "${name}: identical to ${golden}")
endfunction()

check_golden(e18.csv e18_golden.csv
    ${E18} --experiment e18 --csv --jobs 1)
check_golden(e19.csv e19_golden.csv ${E19} --csv --jobs 1)
check_golden(e20.csv e20_golden.csv ${E20} --csv --jobs 1)
check_golden(des_validation.txt des_validation_golden.txt ${DES})
