# Golden digest of a bench's deterministic stats dump.
#
#   cmake -DBIN=<bench binary> "-DARGS=<arguments>" -DEXPECTED=<sha256>
#         -P stats_digest.cmake
#
# Runs BIN with ARGS (space-separated) and compares the SHA-256 of its
# stdout with EXPECTED. Like test_golden_digest.cpp, a change that only
# makes the simulator cheaper must leave the digest unchanged; one that
# moves a simulated output on purpose updates the value and says why in
# CHANGES.md.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}:\n${err}")
endif()
string(SHA256 got "${out}")
if(NOT got STREQUAL EXPECTED)
  message(FATAL_ERROR "stats digest of '${BIN} ${ARGS}' moved\n"
                      "  expected ${EXPECTED}\n  got      ${got}\n${out}")
endif()
