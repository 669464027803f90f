# End-to-end check of the command-line tools: neuroprint_simulate writes a
# small synthetic cohort (an atlas and two sessions of 4-D .nii.gz scans),
# then neuroprint_attack reads every file back through nifti::ReadNifti,
# preprocesses, builds connectomes and writes its match CSV. The check is
# that both tools exit 0 and the CSV holds a header plus one row per
# subject; accuracy is not asserted, since it is partial at this size.
#
#   cmake -DSIMULATE=<neuroprint_simulate> -DATTACK=<neuroprint_attack> \
#         -DWORK_DIR=<scratch dir> -P tools/cli_round_trip.cmake

foreach(var SIMULATE ATTACK WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_round_trip: -D${var}=... is required")
  endif()
endforeach()

set(subjects 4)
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${SIMULATE}" --output "${WORK_DIR}" --subjects ${subjects}
          --regions 8 --frames 40 --grid 12,12,8 --seed 7
  RESULT_VARIABLE simulate_rc
  OUTPUT_VARIABLE simulate_out
  ERROR_VARIABLE simulate_out)
if(NOT simulate_rc EQUAL 0)
  message(FATAL_ERROR
    "neuroprint_simulate exited ${simulate_rc}:\n${simulate_out}")
endif()

set(csv "${WORK_DIR}/match.csv")
execute_process(
  COMMAND "${ATTACK}" --atlas "${WORK_DIR}/atlas.nii.gz"
          --known "${WORK_DIR}/session1" --anonymous "${WORK_DIR}/session2"
          --features 150 --no-temporal-filter --output "${csv}"
  RESULT_VARIABLE attack_rc
  OUTPUT_VARIABLE attack_out
  ERROR_VARIABLE attack_out)
if(NOT attack_rc EQUAL 0)
  message(FATAL_ERROR "neuroprint_attack exited ${attack_rc}:\n${attack_out}")
endif()

if(NOT EXISTS "${csv}")
  message(FATAL_ERROR "neuroprint_attack wrote no ${csv}:\n${attack_out}")
endif()
file(STRINGS "${csv}" lines)
list(LENGTH lines line_count)
math(EXPR expected "${subjects} + 1")
if(NOT line_count EQUAL expected)
  message(FATAL_ERROR
    "${csv} has ${line_count} lines, expected a header plus ${subjects} "
    "rows:\n${lines}")
endif()
list(GET lines 0 header)
if(NOT header STREQUAL "anonymous_scan,predicted_identity,correlation")
  message(FATAL_ERROR "unexpected CSV header: ${header}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
