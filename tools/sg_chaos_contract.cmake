# ctest script: end-to-end check of sg_chaos's documented contract,
# one leg per soak mode.
#
#  - Every clean `--smoke` soak (base, --gray, --sdc, --serve,
#    --serve-overload) matches its oracle in every scenario (exit 0)
#    and writes no reproducer.
#  - Every self-test fails (exit 1) and writes shrunk reproducers,
#    named `chaos_repro_<tag>_<scenario>_seed<N>.json` (no tag for the
#    base soak):
#    `--smoke --inject-defect` (wire protocol off), `--sdc --smoke
#    --inject-defect` (auditor off), `--gray --smoke --recovery-margin
#    0.99` (unattainable SLO) and `--serve-overload --smoke
#    --inject-defect` (wedged lifecycle).
#  - Every reproducer has a `<stem>_flight.json` black box beside it
#    that `sg_explain --flight` reads back (trigger=chaos_failure,
#    "sg_flight_schema":1 in --json).
#  - `--replay <reproducer>` reproduces the recorded failure (exit 1),
#    names the mode in its banner, and is byte-deterministic.
#  - Usage errors exit 2, including flags the chosen mode would ignore,
#    and so does replaying a missing, unparsable or malformed
#    reproducer (the message names the bad field, including a key
#    nothing reads), and so does `sg_explain --flight` on a dump with
#    an out-of-range integer.
#
# Invoked as:
#   cmake -DTOOL=<sg_chaos binary> -DEXPLAIN=<sg_explain binary>
#         -DWORK=<scratch dir> -P this_file

if(NOT DEFINED TOOL OR NOT DEFINED EXPLAIN OR NOT DEFINED WORK)
  message(FATAL_ERROR "TOOL, EXPLAIN and WORK must be defined")
endif()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# expect_exit(<code> <args>...): runs sg_chaos with <args> and fails
# unless it exits with <code>; its stdout and stderr are left in
# CHAOS_OUT and CHAOS_ERR.
function(expect_exit code)
  execute_process(COMMAND "${TOOL}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL ${code})
    message(FATAL_ERROR
      "sg_chaos ${ARGN}: expected exit ${code}, got ${rc}\n${out}${err}")
  endif()
  set(CHAOS_OUT "${out}" PARENT_SCOPE)
  set(CHAOS_ERR "${err}" PARENT_SCOPE)
endfunction()

# clean_soak(<dir> <args>...): the soak passes and writes nothing.
function(clean_soak dir)
  expect_exit(0 ${ARGN} --out-dir "${WORK}/${dir}")
  file(GLOB stray "${WORK}/${dir}/chaos_repro_*.json")
  if(stray)
    message(FATAL_ERROR "clean soak sg_chaos ${ARGN} wrote: ${stray}")
  endif()
endfunction()

# failing_soak(<dir> <prefix> <banner> <args>...): the soak fails and
# writes at least one reproducer, each named
# chaos_repro_<prefix><bench>-<policy>-<model>-<devices>_seed<N>.json
# (<prefix> is "" for the base soak, else the mode tag and "_"); every
# reproducer has a flight dump that sg_explain reads back; the first
# one replays to its failure (exit 1) with <banner> in the replay
# output, identically twice. The replay output is left in CHAOS_OUT.
function(failing_soak dir prefix banner)
  expect_exit(1 ${ARGN} --out-dir "${WORK}/${dir}")
  file(GLOB repros "${WORK}/${dir}/chaos_repro_*.json")
  list(FILTER repros EXCLUDE REGEX "_flight\\.json$")
  if(NOT repros)
    message(FATAL_ERROR
      "sg_chaos ${ARGN} failed but wrote no reproducer\n${CHAOS_OUT}")
  endif()
  foreach(repro IN LISTS repros)
    get_filename_component(name "${repro}" NAME)
    if(NOT name MATCHES "^chaos_repro_${prefix}[a-z]+-(OEC|IEC|HVC|CVC)-\
(Sync|Async)-[0-9]+_seed[0-9]+\\.json$")
      message(FATAL_ERROR
        "sg_chaos ${ARGN}: reproducer ${name} is not named "
        "chaos_repro_${prefix}<scenario>_seed<N>.json")
    endif()
    string(REGEX REPLACE "\\.json$" "_flight.json" flight "${repro}")
    if(NOT EXISTS "${flight}")
      message(FATAL_ERROR "reproducer ${repro} has no flight dump")
    endif()
    execute_process(COMMAND "${EXPLAIN}" --flight "${flight}"
                    RESULT_VARIABLE rc OUTPUT_VARIABLE text)
    if(NOT rc EQUAL 0 OR NOT text MATCHES "trigger=chaos_failure")
      message(FATAL_ERROR
        "sg_explain --flight ${flight} (exit ${rc}):\n${text}")
    endif()
    execute_process(COMMAND "${EXPLAIN}" --flight "${flight}" --json
                    RESULT_VARIABLE rc OUTPUT_VARIABLE json)
    if(NOT rc EQUAL 0 OR NOT json MATCHES "\"sg_flight_schema\":1")
      message(FATAL_ERROR
        "sg_explain --flight ${flight} --json (exit ${rc}):\n${json}")
    endif()
  endforeach()
  list(GET repros 0 repro)
  expect_exit(1 --replay "${repro}")
  set(out "${CHAOS_OUT}")
  if(NOT out MATCHES "reproduced:")
    message(FATAL_ERROR
      "replay of ${repro} did not report the failure:\n${out}")
  endif()
  if(NOT out MATCHES "${banner}")
    message(FATAL_ERROR
      "replay of ${repro} does not say \"${banner}\":\n${out}")
  endif()
  expect_exit(1 --replay "${repro}")
  if(NOT out STREQUAL CHAOS_OUT)
    message(FATAL_ERROR "replay of ${repro} is not deterministic")
  endif()
  set(CHAOS_OUT "${out}" PARENT_SCOPE)
endfunction()

# 2: usage errors — unknown flag, flag missing its value, two modes,
# and flags the chosen mode would ignore (--inject-defect without a
# defect to inject, --recovery-margin outside --gray). Each case is
# "<args>|<text stderr must contain>".
foreach(case "--bogus|unknown flag" "--chaos-seed|needs a value"
        "--gray;--sdc|exclusive"
        "--serve;--inject-defect|--inject-defect is taken only by"
        "--gray;--inject-defect|--inject-defect is taken only by"
        "--recovery-margin;0.5|--recovery-margin is taken only by --gray"
        "--sdc;--recovery-margin;0.5|--recovery-margin is taken only by"
        "--serve;--recovery-margin;0.5|--recovery-margin is taken only by"
        "--serve-overload;--recovery-margin;0.5|--recovery-margin is taken")
  string(REPLACE "|" ";" case "${case}")
  list(POP_BACK case text)
  expect_exit(2 ${case})
  if(NOT CHAOS_ERR MATCHES "${text}")
    message(FATAL_ERROR "sg_chaos ${case}: stderr lacks \"${text}\":\n"
      "${CHAOS_ERR}")
  endif()
endforeach()

# 2: replay of a missing or unparsable file, of one nested 50,000
# levels deep (refused at the parser's depth bound, not a stack
# overflow), or of one that is not a schema-1 reproducer.
file(WRITE "${WORK}/garbage.json" "not json")
string(REPEAT "[" 50000 deep)
file(WRITE "${WORK}/deep.json" "${deep}")
file(WRITE "${WORK}/no_schema.json" "{\"scenario\":{}}")
foreach(name missing garbage deep no_schema)
  expect_exit(2 --replay "${WORK}/${name}.json")
endforeach()

# malformed(<name> <text> <scenario fields> [<rest>]): a reproducer with
# these scenario fields, followed by <rest> (default: an empty plan),
# must replay to exit 2 with <text> — the offending field — on stderr
# instead of crashing.
function(malformed name text scenario)
  set(rest ",\"plan\":{\"seed\":1,\"events\":[]}")
  if(ARGC GREATER 3)
    set(rest "${ARGV3}")
  endif()
  file(WRITE "${WORK}/${name}.json"
       "{\"sg_chaos_schema\":1,\"scenario\":{${scenario}}${rest}}")
  expect_exit(2 --replay "${WORK}/${name}.json")
  if(NOT CHAOS_ERR MATCHES "${text}")
    message(FATAL_ERROR
      "replay of ${name}.json does not name ${text}:\n${CHAOS_ERR}")
  endif()
endfunction()

set(sync "\"exec_model\":\"Sync\"")
set(bfs "\"benchmark\":\"bfs\",\"policy\":\"OEC\",${sync}")
malformed(no_benchmark scenario.benchmark "\"policy\":\"OEC\",${sync}")
malformed(bad_benchmark scenario.benchmark "\"benchmark\":7,\"policy\":\"OEC\"")
malformed(no_policy scenario.policy "\"benchmark\":\"bfs\",${sync}")
malformed(no_exec_model scenario.exec_model
          "\"benchmark\":\"bfs\",\"policy\":\"OEC\"")
malformed(no_devices scenario.devices "${bfs}")
foreach(devices 1e12 0 2.5 "\"4\"")
  malformed(devices scenario.devices "${bfs},\"devices\":${devices}")
endforeach()
malformed(no_plan "\"plan\"" "${bfs},\"devices\":4" "")
malformed(bad_plan "out-of-range \"device\"" "${bfs},\"devices\":4"
          ",\"plan\":{\"seed\":1,\"events\":[{\"kind\":\"device-loss\",\
\"at_s\":0,\"device\":1e12}]}")
malformed(two_tags "mode tag" "${bfs},\"devices\":4"
          ",\"gray\":true,\"sdc\":true,\"plan\":{\"seed\":1,\"events\":[]}")
# A misspelled key would otherwise replay with its default (the wire
# protocol on, a drop window of zero severity).
malformed(scenario_typo "scenario.wire_protcol"
          "${bfs},\"devices\":4,\"wire_protcol\":false")
malformed(event_typo "\"sevrity\"" "${bfs},\"devices\":4"
          ",\"plan\":{\"seed\":1,\"events\":[{\"kind\":\"message-drop\",\
\"at_s\":0,\"duration_s\":1,\"sevrity\":0.5}]}")

# 2: sg_explain --flight refuses a dump whose integer field does not fit
# its type, instead of casting it.
file(WRITE "${WORK}/flight_t_us.json" "{\"sg_flight_schema\":1,\"flight\":\
{\"events\":[{\"t_us\":1e300,\"kind\":\"note\"}]}}")
execute_process(COMMAND "${EXPLAIN}" --flight "${WORK}/flight_t_us.json"
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "\"t_us\"")
  message(FATAL_ERROR
    "sg_explain --flight on t_us 1e300: expected exit 2 naming t_us, "
    "got ${rc}:\n${err}")
endif()

# 0: every protected smoke soak matches its oracle everywhere.
clean_soak(clean --smoke)
clean_soak(gray --gray --smoke)
clean_soak(sdc --sdc --smoke)
clean_soak(serve --serve --smoke)
clean_soak(overload --serve-overload --smoke)

# 1: with the wire protocol disabled the base soak must catch the
# unprotected reducers; the shrunk plan has at most 3 events (the
# replay banner prints the count).
failing_soak(defect "" "wire_protocol=off" --smoke --inject-defect)
if(NOT CHAOS_OUT MATCHES "plan events: [123]\n")
  message(FATAL_ERROR
    "shrunk reproducer should have <= 3 events:\n${CHAOS_OUT}")
endif()

# 1: with the auditor disabled (AuditMode::kOff) the same bit flips
# must ship a wrong answer, and the sdc-tagged reproducer replays the
# audited triple.
failing_soak(sdc_defect sdc_ "sdc triple" --sdc --smoke --inject-defect)

# 1: no mitigation recovers 99% of a degradation's inflation, so the
# gray SLO check must trip; gray reproducers carry their margin.
failing_soak(gray_defect gray_ "gray triple"
             --gray --smoke --recovery-margin 0.99)

# 1: a wedged lifecycle (every engine attempt fails, no retries) must
# trip the overload serve floor.
failing_soak(overload_defect overload_ "serve-overload"
             --serve-overload --smoke --inject-defect)

message(STATUS "sg_chaos contract: all checks passed")
