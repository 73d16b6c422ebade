# Runs the resilience CLI and checks its exit code and what it printed.
#
#   cmake -DCLI=<resilience binary> -DARGS=<;-list> [-DEXPECT_RC=<code>]
#         [-DEXPECT=<regex>] [-DSETUP_ARGS=<;-list>]
#         [-DMETRICS=<file>] [-DMETRICS_EXPECT=<regex>]
#         [-DMETRICS_REJECT=<regex>] [-DCLEAN=<dir>] -P cli_test.cmake
#
# EXPECT matches the run's stdout and stderr together. SETUP_ARGS,
# when given, runs first and must exit 0 (e.g. to fill a golden store);
# CLEAN names a directory removed before anything runs. METRICS names the
# --metrics file ARGS writes; METRICS_EXPECT/METRICS_REJECT match its text.
# ARGS and SETUP_ARGS may also come '|'-separated (as tools/CMakeLists.txt
# passes them, since add_test would split a ';'-list).
string(REPLACE "|" ";" ARGS "${ARGS}")
if(DEFINED SETUP_ARGS)
  string(REPLACE "|" ";" SETUP_ARGS "${SETUP_ARGS}")
endif()
if(NOT DEFINED EXPECT_RC)
  set(EXPECT_RC 0)
endif()
if(DEFINED CLEAN)
  file(REMOVE_RECURSE "${CLEAN}")
endif()

if(DEFINED SETUP_ARGS)
  execute_process(COMMAND "${CLI}" ${SETUP_ARGS}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "setup run exited ${rc}:\n${out}")
  endif()
endif()

execute_process(COMMAND "${CLI}" ${ARGS}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
message("${out}")
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "exit code ${rc}, expected ${EXPECT_RC}")
endif()
if(DEFINED EXPECT AND NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match: ${EXPECT}")
endif()

if(DEFINED METRICS)
  file(READ "${METRICS}" metrics)
  if(DEFINED METRICS_EXPECT AND NOT metrics MATCHES "${METRICS_EXPECT}")
    message(FATAL_ERROR "${METRICS} does not match: ${METRICS_EXPECT}")
  endif()
  if(DEFINED METRICS_REJECT AND metrics MATCHES "${METRICS_REJECT}")
    message(FATAL_ERROR "${METRICS} matches: ${METRICS_REJECT}")
  endif()
endif()
