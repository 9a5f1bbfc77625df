# Run CMD with the space-separated ARGS and require exit status
# EXPECT_EXIT and, when given, EXPECT_STDERR somewhere in its stderr.
#   cmake -DCMD=prog "-DARGS=a b" -DEXPECT_EXIT=2 -DEXPECT_STDERR=text
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${CMD} exited ${rc}, expected ${EXPECT_EXIT}\n${err}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "${CMD} stderr lacks \"${EXPECT_STDERR}\":\n${err}")
endif()
