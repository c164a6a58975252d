# `grca calibrate` on a cdn corpus must give the same rule whether it
# extracts events from the raw records or reads the sealed store that
# `simulate --store-out` wrote: both extract with the study's observers.
#
#   cmake -DGRCA=path/to/grca -DWORK=scratch/dir -P cli_calibrate_matches_store.cmake

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs the command after `out`; stores its stdout in `out`, fails on a
# nonzero exit.
function(run out)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    list(JOIN ARGN " " command)
    message(FATAL_ERROR "exit ${rc}: ${command}\n${stdout}${stderr}")
  endif()
  set(${out} "${stdout}" PARENT_SCOPE)
endfunction()

set(rule --symptom cdn-rtt-increase --diagnostic bgp-egress-change
         --join router)
run(ignored "${GRCA}" simulate --study cdn --days 3 --out "${WORK}/data"
    --store-out "${WORK}/store")
run(fresh "${GRCA}" calibrate --study cdn --data "${WORK}/data" ${rule})
run(stored "${GRCA}" calibrate --study cdn --data "${WORK}/data"
    --store "${WORK}/store" ${rule})

if(NOT fresh MATCHES "samples: [1-9]")
  message(FATAL_ERROR "fresh calibrate found no samples:\n${fresh}")
endif()
if(NOT fresh STREQUAL stored)
  message(FATAL_ERROR "fresh calibrate:\n${fresh}\n--store calibrate:\n${stored}")
endif()
