# Runs trace_info and render_trace on INPUT, a file that opens but is not
# a trace, and checks how they reject it: a nonzero exit, the loader's
# reason in the output, and no claim that the file could not be opened.
# render_trace is given an --out path under OUT_DIR that does not exist,
# and must not leave a file there.
#
#   cmake -DTRACE_INFO=<exe> -DRENDER_TRACE=<exe> -DINPUT=<file> \
#         -DOUT_DIR=<dir> -P expect_rejected.cmake
set(out_file "${OUT_DIR}/rejected_trace_out.ppm")
file(REMOVE "${out_file}")
foreach(tool IN ITEMS "${TRACE_INFO}" "${RENDER_TRACE}")
    set(args "${INPUT}")
    if(tool STREQUAL "${RENDER_TRACE}")
        list(APPEND args "--out=${out_file}")
    endif()
    execute_process(COMMAND "${tool}" ${args}
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
if(EXISTS "${out_file}")
    message(FATAL_ERROR "render_trace left '${out_file}' behind after "
                        "rejecting the trace")
endif()
