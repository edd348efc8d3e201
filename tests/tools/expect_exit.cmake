# Runs the command given after `-P expect_exit.cmake` and fails unless it
# exits with EXPECT_EXIT and, when EXPECT_OUTPUT is set, its combined
# stdout/stderr matches that regular expression.
#
#   cmake -DEXPECT_EXIT=2 [-DEXPECT_OUTPUT=<regex>] -P expect_exit.cmake \
#         <program> [args...]
set(command "")
set(first -1)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(first EQUAL -1 AND CMAKE_ARGV${i} STREQUAL "-P")
    math(EXPR first "${i} + 2")
  elseif(NOT first EQUAL -1 AND i GREATER_EQUAL first)
    list(APPEND command "${CMAKE_ARGV${i}}")
  endif()
endforeach()

execute_process(COMMAND ${command} RESULT_VARIABLE code
  OUTPUT_VARIABLE output ERROR_VARIABLE output)
message("${output}")
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit code ${code}, expected ${EXPECT_EXIT}")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT output MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}'")
endif()
