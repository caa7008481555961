# cli_reject.cmake — run dynamips_study with one malformed numeric flag and
# require that it exits 2 and names the flag on stderr (never silently
# coerces the value). tools/CMakeLists.txt registers one ctest case per
# rejected form:
#   cmake -DSTUDY=path/to/dynamips_study -DOUT=dir -DFLAG=--threads \
#         -DVALUE=abc -P tools/cli_reject.cmake
# The tiny scale keeps a wrongly accepted value cheap to run before the
# test fails.
execute_process(
  COMMAND "${STUDY}" "${OUT}" --atlas-only --scale 0.001 --window 48
          "${FLAG}" "${VALUE}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${FLAG} '${VALUE}': expected exit 2, got ${rc}\n${err}")
endif()
string(FIND "${err}" "${FLAG}:" named)
if(named EQUAL -1)
  message(FATAL_ERROR
          "${FLAG} '${VALUE}': stderr does not name the flag\n${err}")
endif()
