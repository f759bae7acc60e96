# stitch_cli smoke test: one dataset directory, --table and --output left at
# their defaults (table.csv and mosaic.pgm inside --dir). Runs --mode=all,
# then --mode=stitch and --mode=compose separately, and checks that each
# exits 0 and writes its file. A last --mode=stitch run with
# --kernel-dispatch=scalar must force the scalar tier (its metrics snapshot
# says so) and write a table byte-identical to the auto run's.
#
# Usage: cmake -DSTITCH_CLI=<stitch_cli binary> -DDIR=<scratch dir>
#              -P stitch_cli_smoke.cmake
file(REMOVE_RECURSE "${DIR}")
set(table "${DIR}/table.csv")
set(mosaic "${DIR}/mosaic.pgm")

function(run_cli mode)
  execute_process(
    COMMAND "${STITCH_CLI}" --mode=${mode} --dir=${DIR} --rows=2 --cols=3
            --tile-height=64 --tile-width=80 ${ARGN}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "stitch_cli --mode=${mode} exited with ${rc}")
  endif()
endfunction()

function(expect_file path mode)
  if(NOT EXISTS "${path}")
    message(FATAL_ERROR "stitch_cli --mode=${mode} did not write ${path}")
  endif()
endfunction()

run_cli(all)
expect_file("${table}" all)
expect_file("${mosaic}" all)

file(REMOVE "${table}" "${mosaic}")
run_cli(stitch)
expect_file("${table}" stitch)

run_cli(compose)
expect_file("${mosaic}" compose)

file(RENAME "${table}" "${DIR}/table_auto.csv")
run_cli(stitch --kernel-dispatch=scalar --metrics-out=${DIR}/metrics.prom)
expect_file("${table}" "stitch --kernel-dispatch=scalar")
file(READ "${DIR}/metrics.prom" metrics)
string(FIND "${metrics}" "hs_kernel_dispatch{family=\"fft\",tier=\"scalar\"} 1"
       forced)
if(forced EQUAL -1)
  message(FATAL_ERROR "--kernel-dispatch=scalar did not force the scalar tier")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${DIR}/table_auto.csv" "${table}"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "the scalar-tier table differs from the auto run's")
endif()
