# Runs BIN with the space-separated ARGS and fails unless its standard
# output equals the file GOLDEN byte for byte.
#
#   cmake -DBIN=<program> "-DARGS=<flags>" -DGOLDEN=<file> -P compare_output.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_VARIABLE actual RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${BIN} ${ARGS} printed, unlike ${GOLDEN}:\n${actual}")
endif()
