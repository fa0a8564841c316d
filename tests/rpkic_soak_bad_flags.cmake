# Runs rpkic-soak once per malformed numeric flag value and requires exit
# status 1 (usage error) every time: no value may silently become 0, wrap
# around, or run a different experiment than the one asked for.
#   cmake -DSOAK=/path/to/rpkic-soak -P tests/rpkic_soak_bad_flags.cmake
set(failures "")
foreach(entry IN ITEMS
    "--seeds=abc" "--seeds=18446744073709551616" "--seeds=" "--seed-base=-1"
    "--rounds=-1" "--rounds=4294967296" "--retry-budget=2x" "--crash-every=+3"
    "--fleet=five" "--quorum=-2" "--fault-rate=x" "--fault-rate=1.5"
    "--fault-rate=-0.1" "--fault-rate=0.3abc" "--fault-rate=" "--adversarial=nan")
  string(FIND "${entry}" "=" eq)
  string(SUBSTRING "${entry}" 0 ${eq} flag)
  math(EXPR start "${eq} + 1")
  string(SUBSTRING "${entry}" ${start} -1 value)
  execute_process(COMMAND "${SOAK}" "${flag}" "${value}" --quiet
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET TIMEOUT 10)
  if(NOT rc EQUAL 1)
    list(APPEND failures "${flag} '${value}' -> ${rc}")
  endif()
endforeach()
if(failures)
  message(FATAL_ERROR "rpkic-soak accepted bad numeric flags (want exit 1): ${failures}")
endif()
