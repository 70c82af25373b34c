# Runs one figure program and compares its stdout byte for byte with a
# committed golden file; on a mismatch, prints the first line that
# differs. Usage:
#   cmake -DBIN=<program> -DGOLDEN=<file> -DWORKDIR=<dir> \
#         -P compare_golden.cmake
# The program runs in WORKDIR, since some (bench_fusion) write files to
# their working directory.
cmake_minimum_required(VERSION 3.16)
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BIN}"
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE errors
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}:\n${errors}")
endif()
file(READ "${GOLDEN}" expected)
if(actual STREQUAL expected)
  return()
endif()

# Walk both texts line by line to the first difference.
set(line 1)
while(TRUE)
  string(FIND "${expected}" "\n" e_end)
  string(FIND "${actual}" "\n" a_end)
  string(SUBSTRING "${expected}" 0 ${e_end} e_line)
  string(SUBSTRING "${actual}" 0 ${a_end} a_line)
  if(NOT e_line STREQUAL a_line OR e_end EQUAL -1 OR a_end EQUAL -1)
    break()
  endif()
  math(EXPR e_end "${e_end} + 1")
  math(EXPR a_end "${a_end} + 1")
  string(SUBSTRING "${expected}" ${e_end} -1 expected)
  string(SUBSTRING "${actual}" ${a_end} -1 actual)
  math(EXPR line "${line} + 1")
endwhile()
message(FATAL_ERROR
  "stdout differs from ${GOLDEN} at line ${line}\n"
  "  expected: ${e_line}\n"
  "  actual:   ${a_line}")
