# ctest script: end-to-end check of report_diff's documented exit-code
# contract (0 = no regressions, 1 = regressions or missing runs,
# 2 = usage / schema error) and of the --json output schema.
#
# Invoked as:
#   cmake -DTOOL=<report_diff binary> -DWORK=<scratch dir> -P this_file

if(NOT DEFINED TOOL OR NOT DEFINED WORK)
  message(FATAL_ERROR "TOOL and WORK must be defined")
endif()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

function(make_report path time)
  file(WRITE "${path}" "{\"schema_version\":1,\"generator\":\"scalegraph\",\
\"bench\":\"contract\",\"runs\":[{\"meta\":{\"label\":\"bfs/x/Sys/cfg/4\"},\
\"stats\":{\"total_time_s\":${time},\"global_rounds\":10,\
\"comm\":{\"total_volume_bytes\":1000}}}]}")
endfunction()

make_report("${WORK}/base.json" 1.0)
make_report("${WORK}/same.json" 1.0)
make_report("${WORK}/slow.json" 2.0)
file(WRITE "${WORK}/garbage.json" "this is not json")
file(WRITE "${WORK}/huge_schema.json" "{\"schema_version\":1e20,\"runs\":[]}")
# 50,000 nested arrays: the parser must refuse the depth, not overflow
# its stack.
string(REPEAT "[" 50000 deep)
file(WRITE "${WORK}/deep.json" "${deep}")

function(expect_exit code)
  # Remaining args: the report_diff argument list.
  execute_process(COMMAND "${TOOL}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL ${code})
    message(FATAL_ERROR
      "report_diff ${ARGN}: expected exit ${code}, got ${rc}\n${out}${err}")
  endif()
endfunction()

# 0: identical reports are clean.
expect_exit(0 "${WORK}/base.json" "${WORK}/same.json")
# 1: 2x slower run regresses past the default threshold.
expect_exit(1 "${WORK}/base.json" "${WORK}/slow.json")
# 0: a huge threshold forgives the regression.
expect_exit(0 "${WORK}/base.json" "${WORK}/slow.json" --threshold 2.0)
# 2: usage errors (missing file operand, unknown flag, missing value).
expect_exit(2)
expect_exit(2 "${WORK}/base.json")
expect_exit(2 "${WORK}/base.json" "${WORK}/same.json" --bogus)
expect_exit(2 "${WORK}/base.json" "${WORK}/same.json" --threshold)
# 2: unparseable / non-report inputs.
expect_exit(2 "${WORK}/garbage.json" "${WORK}/same.json")
expect_exit(2 "${WORK}/deep.json" "${WORK}/deep.json")
# 2: a schema_version that does not fit an int is refused, not cast.
expect_exit(2 "${WORK}/huge_schema.json" "${WORK}/same.json")
expect_exit(2 "${WORK}/base.json" "${WORK}/missing-file.json")

# --json keeps the exit-code contract and emits the documented schema.
execute_process(COMMAND "${TOOL}" "${WORK}/base.json" "${WORK}/slow.json" --json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "--json regression run: expected exit 1, got ${rc}")
endif()
foreach(needle
    "\"report_diff_schema\":1" "\"regressions\":" "\"items\":"
    "\"metric\":\"total_time_s\"" "\"regressed\":true" "\"missing_runs\":")
  string(FIND "${out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "--json output missing ${needle}:\n${out}")
  endif()
endforeach()

# Determinism: two invocations produce byte-identical JSON.
execute_process(COMMAND "${TOOL}" "${WORK}/base.json" "${WORK}/slow.json" --json
                RESULT_VARIABLE rc2 OUTPUT_VARIABLE out2)
if(NOT out STREQUAL out2)
  message(FATAL_ERROR "--json output is not deterministic")
endif()

message(STATUS "report_diff contract: all checks passed")
