# Runs trace_info and render_trace on INPUT, a file that opens but is not
# a trace, and checks how they reject it: a nonzero exit, the loader's
# reason in the output, and no claim that the file could not be opened.
#
#   cmake -DTRACE_INFO=<exe> -DRENDER_TRACE=<exe> -DINPUT=<file> \
#         -P expect_rejected.cmake
foreach(tool IN ITEMS "${TRACE_INFO}" "${RENDER_TRACE}")
    execute_process(COMMAND "${tool}" "${INPUT}"
                    RESULT_VARIABLE status
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    set(all "${out}${err}")
    if(status EQUAL 0)
        message(FATAL_ERROR "${tool} accepted a file that is not a trace:\n"
                            "${all}")
    endif()
    if(NOT all MATCHES "cannot load trace '[^']*': not a CHOPIN trace file")
        message(FATAL_ERROR "${tool} did not print the loader's reason:\n"
                            "${all}")
    endif()
    if(all MATCHES "cannot open '")
        message(FATAL_ERROR "${tool} reported a rejected trace as "
                            "unopenable:\n${all}")
    endif()
endforeach()
