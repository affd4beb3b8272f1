# Runs the command given after `--` and passes only if it exits 0, its
# output (stdout and stderr together) matches the regular expression
# EXPECT and, when REJECT is set, does not match REJECT. ctest's own
# PASS_REGULAR_EXPRESSION ignores the exit status; this keeps both.
# In a CMake regex `.` also matches a newline, so "a.*b" asks for `a`
# followed anywhere later by `b`.
#
#   cmake -DEXPECT=<regex> [-DREJECT=<regex>] -P check_output.cmake \
#         -- <command> [args...]
set(command "")
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT command OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "usage: cmake -DEXPECT=<regex> [-DREJECT=<regex>] "
                      "-P check_output.cmake -- <command> [args...]")
endif()

execute_process(COMMAND ${command}
                OUTPUT_VARIABLE output ERROR_VARIABLE output
                RESULT_VARIABLE status)
message("${output}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "exit status ${status}: ${command}")
endif()
if(NOT output MATCHES "${EXPECT}")
  message(FATAL_ERROR "the output does not match '${EXPECT}'")
endif()
if(DEFINED REJECT AND output MATCHES "${REJECT}")
  message(FATAL_ERROR "the output matches '${REJECT}'")
endif()
