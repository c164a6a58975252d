# `grca simulate --store-out` must seal the events every reader of the
# archive extracts: for each study, `diagnose --data D` and
# `diagnose --data D --store S` print the same breakdown.
#
#   cmake -DGRCA=path/to/grca -DWORK=scratch/dir -P cli_simulate_store_matches_fresh.cmake

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs the command after `out`; stores its stdout, without the wall-clock
# "mean diagnosis time" line, in `out`; fails on a nonzero exit.
function(run out)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    list(JOIN ARGN " " command)
    message(FATAL_ERROR "exit ${rc}: ${command}\n${stdout}${stderr}")
  endif()
  string(REGEX REPLACE "mean diagnosis time:[^\n]*\n" "" stdout "${stdout}")
  set(${out} "${stdout}" PARENT_SCOPE)
endfunction()

foreach(study bgp cdn pim innet)
  set(data "${WORK}/${study}-data")
  set(store "${WORK}/${study}-store")
  run(ignored "${GRCA}" simulate --study ${study} --days 2 --out "${data}"
      --store-out "${store}")
  run(fresh "${GRCA}" diagnose --study ${study} --data "${data}")
  run(stored "${GRCA}" diagnose --study ${study} --data "${data}"
      --store "${store}")
  if(NOT fresh MATCHES "root cause breakdown")
    message(FATAL_ERROR "${study}: no breakdown:\n${fresh}")
  endif()
  if(NOT fresh STREQUAL stored)
    message(FATAL_ERROR
            "${study} diagnose --data:\n${fresh}\n--store:\n${stored}")
  endif()
endforeach()
