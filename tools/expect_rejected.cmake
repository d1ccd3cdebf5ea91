# Runs trace_info and render_trace on INPUT, a file that opens but is not
# a trace, and checks how they reject it: exit status 2, the loader's
# "warn:" line with its reason, then "<tool>: error: trace '<INPUT>'
# rejected" as the last stderr line, and no claim that the file could not
# be opened.
# render_trace is given an --out path under OUT_DIR that does not exist,
# and must not leave a file there.
#
#   cmake -DTRACE_INFO=<exe> -DRENDER_TRACE=<exe> -DINPUT=<file> \
#         -DOUT_DIR=<dir> -P expect_rejected.cmake
set(out_file "${OUT_DIR}/rejected_trace_out.ppm")
file(REMOVE "${out_file}")
foreach(tool IN ITEMS "${TRACE_INFO}" "${RENDER_TRACE}")
    get_filename_component(name "${tool}" NAME_WE)
    set(args "${INPUT}")
    if(tool STREQUAL "${RENDER_TRACE}")
        list(APPEND args "--out=${out_file}")
    endif()
    execute_process(COMMAND "${tool}" ${args}
                    RESULT_VARIABLE status
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    set(all "${out}${err}")
    if(NOT status EQUAL 2)
        message(FATAL_ERROR "${tool} exited ${status} on a file that is not "
                            "a trace, not 2:\n${all}")
    endif()
    string(CONCAT expected
           "warn: cannot load trace '${INPUT}': not a CHOPIN trace file\n"
           "${name}: error: trace '${INPUT}' rejected\n")
    if(NOT err STREQUAL expected)
        message(FATAL_ERROR "${tool} did not print exactly the loader's "
                            "reason and then the rejection:\n${all}")
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
