# CLI contract tests for xmlprojd, driven via
#   ctest → cmake -DDAEMON=<path> -P xmlprojd_cli_test.cmake
#
# Verifies strict flags: a malformed, negative or out-of-range number,
# or an empty path, exits 1 naming the flag, before the daemon listens;
# an unopenable trace export exits 2 naming it. Every run has a timeout,
# so a value that slips through fails the check within seconds instead
# of leaving a server running.

if(NOT DEFINED DAEMON)
  message(FATAL_ERROR "pass -DDAEMON=<path to xmlprojd>")
endif()

set(failures 0)

# expect_usage(<flag> <arg>...) — run the daemon; want exit 1 and <flag>
# named on stderr.
function(expect_usage flag)
  execute_process(COMMAND "${DAEMON}" ${ARGN}
    TIMEOUT 10
    RESULT_VARIABLE got
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT got STREQUAL "1")
    math(EXPR failures "${failures} + 1")
    set(failures "${failures}" PARENT_SCOPE)
    message(STATUS "FAIL: '${ARGN}' exited ${got}, want 1")
    message(STATUS "  stdout: ${out}")
  elseif(NOT err MATCHES "${flag}")
    math(EXPR failures "${failures} + 1")
    set(failures "${failures}" PARENT_SCOPE)
    message(STATUS "FAIL: '${ARGN}' stderr does not name ${flag}: ${err}")
  else()
    message(STATUS "ok: '${ARGN}' -> 1")
  endif()
endfunction()

expect_usage(--port --port=99999)
expect_usage(--port --port=65536)
expect_usage(--port --port=abc)
expect_usage(--port --port=-1)
expect_usage(--port --port=)
expect_usage(--workers --workers=0)
expect_usage(--workers --workers=-2)
expect_usage(--workers --workers=4x)
expect_usage(--workers --workers=2147483648)
expect_usage(--cache-capacity --cache-capacity=0)
expect_usage(--cache-capacity --cache-capacity=abc)
expect_usage(--max-document-bytes --max-document-bytes=-1)
expect_usage(--max-document-bytes --max-document-bytes=0)
expect_usage(--max-document-bytes --max-document-bytes=18446744073709551616)
expect_usage(--default-max-bytes --default-max-bytes=-1)
expect_usage(--default-deadline-ms --default-deadline-ms=1.5)
expect_usage(--breaker-window --breaker-window=-1)
expect_usage(--breaker-window --breaker-window=0)
expect_usage(--breaker-window --breaker-window=18446744073709551615)
expect_usage(--breaker-window --breaker --breaker-window=-1)
expect_usage(--breaker-threshold --breaker-threshold=abc)
expect_usage(--breaker-threshold --breaker-threshold=0)
expect_usage(--breaker-threshold --breaker-threshold=-0.5)
expect_usage(--breaker-threshold --breaker-threshold=1.5)
expect_usage(--breaker-threshold --breaker-threshold=nan)
expect_usage(--breaker-threshold --breaker-threshold=0.5x)
expect_usage(--breaker-cooldown-ms --breaker-cooldown-ms=-5)
expect_usage(--slo-latency-ms --slo-latency-ms=abc)
expect_usage(--no-such-flag --no-such-flag=1)
# An empty path would turn its feature off without a word.
expect_usage(--journal --journal=)
expect_usage(--log --log=)
expect_usage(--trace-export --trace-export=)

# A trace export that cannot be opened is a startup failure (exit 2).
execute_process(COMMAND "${DAEMON}" --port=0
    --trace-export=/nonexistent/dir/t.jsonl
  TIMEOUT 10
  RESULT_VARIABLE got
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT got STREQUAL "2" OR NOT err MATCHES "trace export" OR
   err MATCHES "push")
  math(EXPR failures "${failures} + 1")
  message(STATUS "FAIL: unopenable --trace-export exited ${got}, want 2 "
    "naming the trace export (and no push sink): ${err}")
else()
  message(STATUS "ok: unopenable --trace-export -> 2")
endif()

# Well-formed values at the edges of their ranges are accepted: the daemon
# comes up and keeps serving until the timeout kills it.
execute_process(COMMAND "${DAEMON}" --port=0 --workers=1 --cache-capacity=1
    --max-document-bytes=1 --breaker --breaker-window=1
    --breaker-threshold=1 --breaker-cooldown-ms=0
  TIMEOUT 3
  RESULT_VARIABLE got
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT out MATCHES "xmlprojd listening on 127\\.0\\.0\\.1:[0-9]+")
  math(EXPR failures "${failures} + 1")
  message(STATUS "FAIL: edge values did not start the daemon (${got}): ${err}")
else()
  message(STATUS "ok: edge values start the daemon")
endif()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} xmlprojd CLI check(s) failed")
endif()
