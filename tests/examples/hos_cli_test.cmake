# Runs hos_cli on a CSV and checks its exit code and output (stdout and
# stderr together). Registered with ctest by the root CMakeLists.txt:
#
#   cmake -DCLI=<hos_cli> -DCSV=<data.csv> -DARGS=<arg|arg|...>
#         -DEXPECT_EXIT=<code> -DEXPECT_OUTPUT=<text|text|...>
#         -P hos_cli_test.cmake
#
# ARGS and EXPECT_OUTPUT are '|'-separated; every EXPECT_OUTPUT entry must
# appear verbatim in the output.

string(REPLACE "|" ";" args "${ARGS}")
string(REPLACE "|" ";" expected "${EXPECT_OUTPUT}")
string(REPLACE "|" " " shown "${ARGS}")
execute_process(COMMAND "${CLI}" "${CSV}" ${args}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(output "${out}${err}")
if(NOT code EQUAL EXPECT_EXIT)
  message(FATAL_ERROR
    "hos_cli ${shown}: exit ${code}, expected ${EXPECT_EXIT}\n${output}")
endif()
foreach(text IN LISTS expected)
  string(FIND "${output}" "${text}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
      "hos_cli ${shown}: output lacks '${text}'\n${output}")
  endif()
endforeach()
