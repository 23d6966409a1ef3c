# Runs one figure bench in a scratch directory and compares the records of
# the BENCH_<NAME>.json it writes, line for line, with a committed golden
# file. Record seconds are printed with %.17g, so equal lines mean
# bit-identical modeled times.
#
#   cmake -DBENCH=<executable> -DNAME=<bench name> -DGOLDEN=<golden json>
#         -DWORKDIR=<scratch dir> -P CheckRecords.cmake
#
# Regenerate a golden file only when a change is meant to move the
# figure: run the bench and keep the "records" array of its output.

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE Rc OUTPUT_FILE "${WORKDIR}/stdout.txt"
                ERROR_FILE "${WORKDIR}/stderr.txt")
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${Rc}; see ${WORKDIR}")
endif()

file(STRINGS "${WORKDIR}/BENCH_${NAME}.json" Got REGEX "\"variant\"")
file(STRINGS "${GOLDEN}" Want REGEX "\"variant\"")
list(LENGTH Got GotCount)
list(LENGTH Want WantCount)
if(NOT GotCount EQUAL WantCount)
  message(FATAL_ERROR
    "${NAME}: ${GotCount} records, golden ${GOLDEN} has ${WantCount}")
endif()
set(Mismatches 0)
math(EXPR Last "${WantCount} - 1")
foreach(I RANGE ${Last})
  list(GET Got ${I} G)
  list(GET Want ${I} W)
  if(NOT G STREQUAL W)
    math(EXPR Mismatches "${Mismatches} + 1")
    message(STATUS "record ${I} differs\n  got:  ${G}\n  want: ${W}")
  endif()
endforeach()
if(Mismatches GREATER 0)
  message(FATAL_ERROR
    "${NAME}: ${Mismatches} of ${WantCount} records differ from ${GOLDEN}")
endif()
message(STATUS "${NAME}: ${WantCount} records match ${GOLDEN}")
