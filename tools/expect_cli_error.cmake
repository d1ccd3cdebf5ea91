# Runs a tool on bad input and checks the command-line error contract:
# exit status 2, and exactly one stderr line that starts "<TOOL>: error:".
# That line is the last one, only a trace loader's "warn:" lines may come
# before it, and its message must match the regular expression EXPECT.
#
#   cmake -DTOOL=<name> -DEXE=<exe> [-DARGS=<arg>|<arg>|...] \
#         -DEXPECT=<regex> -P expect_cli_error.cmake
#
# ARGS separates the tool's arguments with "|", because a ";" inside an
# add_test() argument would split it.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(report "${TOOL} ${ARGS}\nexit status: ${status}\nstderr:\n${err}")
if(NOT status EQUAL 2)
    message(FATAL_ERROR "expected exit status 2\n${report}")
endif()
if(NOT err MATCHES "^(warn: [^\n]*\n)*${TOOL}: error: ([^\n]*)\n$")
    message(FATAL_ERROR "expected exactly one '${TOOL}: error:' line, last, "
                        "after nothing but 'warn:' lines\n${report}")
endif()
if(NOT CMAKE_MATCH_2 MATCHES "${EXPECT}")
    message(FATAL_ERROR "the error message does not match '${EXPECT}'\n"
                        "${report}")
endif()
