# expect_exit2.cmake — run a command and require that it exits 2 (a usage
# error), or CODE when given, with every NAMES string on stderr.
# tools/CMakeLists.txt and bench/CMakeLists.txt register the cases; ARGS and
# NAMES are "|"-separated because ctest splits ";" lists into separate
# arguments:
#   cmake -DCOMMAND=path/to/dynamips_study \
#         "-DARGS=out|--atlas-only|--cdn-only" \
#         "-DNAMES=--atlas-only|--cdn-only" -P tools/expect_exit2.cmake
if(NOT DEFINED CODE)
  set(CODE 2)
endif()
string(REPLACE "|" ";" args "${ARGS}")
string(REPLACE "|" ";" names "${NAMES}")
execute_process(
  COMMAND "${COMMAND}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL CODE)
  message(FATAL_ERROR "${ARGS}: expected exit ${CODE}, got ${rc}\n${err}")
endif()
foreach(name IN LISTS names)
  string(FIND "${err}" "${name}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${ARGS}: stderr does not name ${name}\n${err}")
  endif()
endforeach()
