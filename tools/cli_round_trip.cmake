# End-to-end check of the command-line tools: neuroprint_simulate writes a
# small synthetic cohort (an atlas and two sessions of 4-D .nii.gz scans),
# then neuroprint_attack reads every file back through nifti::ReadNifti,
# preprocesses, builds connectomes and writes its match CSV. The check is
# that both tools exit 0 and the CSV holds a header plus one row per
# subject; accuracy is not asserted, since it is partial at this size.
# Further runs check that a non-positive --features is a usage error
# (exit 2), that a truncated scan is skipped and named, and that
# --cache-dir reuses a cohort only for the same directory and flags, and
# that a --cache-dir that does not exist is a warning, not a failure.
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

# Fails unless `csv` holds the match header plus one row per subject.
function(check_match_csv csv out)
  if(NOT EXISTS "${csv}")
    message(FATAL_ERROR "neuroprint_attack wrote no ${csv}:\n${out}")
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
endfunction()
check_match_csv("${csv}" "${attack_out}")

# Runs neuroprint_attack on the fixture with `extra` arguments; sets
# attack_rc and attack_out in the caller.
function(run_attack)
  execute_process(
    COMMAND "${ATTACK}" --atlas "${WORK_DIR}/atlas.nii.gz"
            --known "${WORK_DIR}/session1" --anonymous "${WORK_DIR}/session2"
            ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
  set(attack_rc "${rc}" PARENT_SCOPE)
  set(attack_out "${out}" PARENT_SCOPE)
endfunction()

foreach(bad_features -5 0 12abc)
  run_attack(--features ${bad_features})
  if(NOT attack_rc EQUAL 2)
    message(FATAL_ERROR
      "--features ${bad_features} exited ${attack_rc}, expected 2:\n"
      "${attack_out}")
  endif()
endforeach()

# A truncated scan is skipped and named; the other subjects still match.
file(WRITE "${WORK_DIR}/session1/bad.nii.gz" "abc")
set(cache "${WORK_DIR}/cache")
file(MAKE_DIRECTORY "${cache}")
set(flags --features 150 --no-temporal-filter --cache-dir "${cache}")
run_attack(${flags} --output "${WORK_DIR}/skip.csv")
if(NOT attack_rc EQUAL 0)
  message(FATAL_ERROR
    "neuroprint_attack with a bad scan exited ${attack_rc}:\n${attack_out}")
endif()
check_match_csv("${WORK_DIR}/skip.csv" "${attack_out}")
if(NOT attack_out MATCHES "skipping [^\n]*bad\\.nii\\.gz")
  message(FATAL_ERROR "bad.nii.gz was not reported skipped:\n${attack_out}")
endif()
if(attack_out MATCHES "loaded [0-9]+ cached")
  message(FATAL_ERROR "a fresh --cache-dir was read:\n${attack_out}")
endif()

# The same directories and flags reuse the cache, with the same matches.
run_attack(${flags} --output "${WORK_DIR}/cached.csv")
if(NOT attack_rc EQUAL 0 OR NOT attack_out MATCHES "loaded [0-9]+ cached")
  message(FATAL_ERROR
    "a rerun with the same flags did not load the cache (exit "
    "${attack_rc}):\n${attack_out}")
endif()
file(READ "${WORK_DIR}/skip.csv" skip_csv)
file(READ "${WORK_DIR}/cached.csv" cached_csv)
if(NOT skip_csv STREQUAL cached_csv)
  message(FATAL_ERROR "cached matches differ:\n${skip_csv}\n${cached_csv}")
endif()

# Other pipeline flags, or other directories, miss the cache.
run_attack(${flags} --no-motion-correction)
if(NOT attack_rc EQUAL 0 OR attack_out MATCHES "loaded [0-9]+ cached")
  message(FATAL_ERROR
    "a run with other flags reused the cache (exit ${attack_rc}):\n"
    "${attack_out}")
endif()
execute_process(
  COMMAND "${ATTACK}" --atlas "${WORK_DIR}/atlas.nii.gz"
          --known "${WORK_DIR}/session2" --anonymous "${WORK_DIR}/session1"
          ${flags}
  RESULT_VARIABLE attack_rc
  OUTPUT_VARIABLE attack_out
  ERROR_VARIABLE attack_out)
if(NOT attack_rc EQUAL 0 OR attack_out MATCHES "loaded [0-9]+ cached")
  message(FATAL_ERROR
    "a run over other directories reused the cache (exit ${attack_rc}):\n"
    "${attack_out}")
endif()

# A cache directory that does not exist: the run still succeeds, and the
# failed cache write is named on stderr.
set(missing_cache "${WORK_DIR}/no-such-cache-dir")
run_attack(--features 150 --no-temporal-filter --cache-dir "${missing_cache}"
           --output "${WORK_DIR}/uncached.csv")
if(NOT attack_rc EQUAL 0)
  message(FATAL_ERROR
    "a missing --cache-dir exited ${attack_rc}, expected 0:\n${attack_out}")
endif()
check_match_csv("${WORK_DIR}/uncached.csv" "${attack_out}")
if(NOT attack_out MATCHES
   "warning: cannot write feature cache [^\n]*no-such-cache-dir")
  message(FATAL_ERROR
    "the failed cache write was not reported:\n${attack_out}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
