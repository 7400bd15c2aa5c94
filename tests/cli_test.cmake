# CLI contract tests for parallel_prune_tool, driven via
#   ctest → cmake -DTOOL=<path> -P cli_test.cmake
#
# Verifies strict flag handling: --threads 0 / negative and malformed
# numbers must exit with the usage code (1), never silently clamp; so must
# a well-formed value for a removed flag, which is never silently ignored,
# and an empty path, which would otherwise turn its output off unnoticed.

if(NOT DEFINED TOOL)
  message(FATAL_ERROR "pass -DTOOL=<path to parallel_prune_tool>")
endif()

set(failures 0)

# expect_exit(<code> <arg>...) — run the tool, compare the exit code.
function(expect_exit expected)
  execute_process(COMMAND "${TOOL}" ${ARGN}
    RESULT_VARIABLE got
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT got STREQUAL "${expected}")
    math(EXPR failures "${failures} + 1")
    set(failures "${failures}" PARENT_SCOPE)
    message(STATUS "FAIL: '${TOOL} ${ARGN}' exited ${got}, want ${expected}")
    message(STATUS "  stderr: ${err}")
  else()
    message(STATUS "ok: '${ARGN}' -> ${got}")
  endif()
endfunction()

# expect_usage(<flag> <arg>...) — run the tool; want exit 1 and <flag>
# named on stderr.
function(expect_usage flag)
  execute_process(COMMAND "${TOOL}" ${ARGN}
    RESULT_VARIABLE got
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT got STREQUAL "1")
    math(EXPR failures "${failures} + 1")
    set(failures "${failures}" PARENT_SCOPE)
    message(STATUS "FAIL: '${TOOL} ${ARGN}' exited ${got}, want 1")
    message(STATUS "  stdout: ${out}")
  elseif(NOT err MATCHES "${flag}")
    math(EXPR failures "${failures} + 1")
    set(failures "${failures}" PARENT_SCOPE)
    message(STATUS "FAIL: '${ARGN}' stderr does not name ${flag}: ${err}")
  else()
    message(STATUS "ok: '${ARGN}' -> 1")
  endif()
endfunction()

# expect_output(<regex> <arg>...) — run the tool, expect exit 0 and the
# combined stdout/stderr to match the regex.
function(expect_output pattern)
  execute_process(COMMAND "${TOOL}" ${ARGN}
    RESULT_VARIABLE got
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT got STREQUAL "0")
    math(EXPR failures "${failures} + 1")
    set(failures "${failures}" PARENT_SCOPE)
    message(STATUS "FAIL: '${TOOL} ${ARGN}' exited ${got}, want 0")
    message(STATUS "  stderr: ${err}")
  elseif(NOT "${out}${err}" MATCHES "${pattern}")
    math(EXPR failures "${failures} + 1")
    set(failures "${failures}" PARENT_SCOPE)
    message(STATUS "FAIL: '${ARGN}' output does not match '${pattern}'")
    message(STATUS "  output: ${out}")
  else()
    message(STATUS "ok: '${ARGN}' matches '${pattern}'")
  endif()
endfunction()

# Usage errors: exit 1, nothing clamped.
expect_exit(1 --threads=0)
expect_exit(1 --threads=-2)
expect_exit(1 --threads=abc)
expect_exit(1 --no-such-flag)
# Removed flags: a well-formed value is still a usage error.
expect_exit(1 --intra-doc-threads=2)
expect_exit(1 --chunk-bytes=4096)
expect_exit(1 --drain-ms=10000)
expect_exit(1 --drain-ms=abc)
expect_exit(1 --drain-ms=-1)
# The retry policy is gone: a task runs one pass.
expect_exit(1 --policy=retry)
expect_exit(1 --retries=3)
# The hung-task watchdog is gone: a task's deadline bounds its pass.
expect_usage(--watchdog-factor --deadline-ms=100 --watchdog-factor=2)
# The push plane is gone: telemetry leaves by scrape, end-of-run files
# and the journal.
expect_usage(--statsd --statsd=127.0.0.1:8125)
expect_usage(--push-interval-ms --push-interval-ms=100)
expect_usage(--push-jsonl --push-jsonl=x.jsonl)

# Observability flags are strict too: an empty path is a usage error.
expect_exit(1 --journal=)
expect_usage(--metrics-out --docs=1 --scale=0.001 --metrics-out=)
expect_usage(--prometheus-out --docs=1 --scale=0.001 --prometheus-out=)
expect_usage(--trace-out --docs=1 --scale=0.001 --trace-out=)
expect_usage(--failures-out --docs=1 --scale=0.001 --failures-out=)
expect_exit(1 --docs=1 --scale=0.001 --auto-budget)  # needs --journal

# Well-formed run: exit 0. Tiny corpus keeps this fast.
expect_exit(0 --docs=1 --scale=0.001 --threads=1)

# Journal → auto-budget round trip: the first run appends a record with a
# metered peak; the second loads it, derives a p99-based cap, and says so.
set(journal_dir "${CMAKE_CURRENT_BINARY_DIR}/cli_test_journal")
file(REMOVE_RECURSE "${journal_dir}")
expect_output("journal: appended run run-"
  --docs=2 --scale=0.001 --threads=1 --journal=${journal_dir}
  --corpus-label=cli-test)
expect_output("auto-budget: p99 peak [0-9]+ bytes over 1 run\\(s\\) -> max-bytes=[0-9]+"
  --docs=2 --scale=0.001 --threads=1 --journal=${journal_dir}
  --corpus-label=cli-test --auto-budget)
# A different corpus label must not inherit that budget.
expect_output("auto-budget: no prior peak history"
  --docs=1 --scale=0.001 --threads=1 --journal=${journal_dir}
  --corpus-label=other-corpus --auto-budget)
# An explicit cap always wins over the suggestion.
expect_output("auto-budget: --max-bytes=[0-9]+ set explicitly"
  --docs=1 --scale=0.001 --threads=1 --journal=${journal_dir}
  --corpus-label=cli-test --auto-budget --max-bytes=100000000)
file(REMOVE_RECURSE "${journal_dir}")

# A tripped breaker does not lock out later runs. Run 1's injected server
# faults ("io") open it; run 2 is seeded open from them and fast-fails
# every task inside the cooldown; run 2's record holds only "circuit"
# fast-fails, which are the breaker's own answer and seed nothing, so
# run 3 starts closed and completes every task.
set(breaker_dir "${CMAKE_CURRENT_BINARY_DIR}/cli_test_breaker")
file(REMOVE_RECURSE "${breaker_dir}")
set(breaker_run --docs=40 --scale=0.001 --threads=2 --policy=isolate
  --journal=${breaker_dir} --corpus-label=x)
expect_output("tasks completed +0\n"
  ${breaker_run} --failpoints=pipeline.task:unavailable)
expect_output("circuit: seeded open" ${breaker_run})
expect_output("tasks completed +40\n" ${breaker_run})
file(REMOVE_RECURSE "${breaker_dir}")

# Checkpoint/resume flag contract: strict values and mutual exclusions.
expect_exit(1 --checkpoint=)
expect_exit(1 --resume=)
expect_exit(1 --checkpoint=/tmp/a --resume=/tmp/b)     # mutually exclusive
expect_exit(1 --checkpoint=/tmp/a --sweep)             # sweep re-runs tasks
expect_exit(1 --resume-retry-quarantined)              # needs --resume

# The full exit-code table (README "Exit codes"), one probe per code the
# tool can produce without a signal: 0 ok, 1 usage (above), 3 input
# file, 4 empty corpus, 6 report write, 9 resume binding mismatch.
expect_exit(3 --input=/nonexistent/no-such-file.xml)
expect_exit(4 --docs=0)
expect_exit(6 --docs=1 --scale=0.001 --threads=1
  --metrics-out=/nonexistent-dir/metrics.json)

# Checkpoint -> resume end to end: a checkpointed run commits durable
# outputs; resuming it skips every settled task; resuming against a
# different corpus refuses with the distinct mismatch code.
set(ck_dir "${CMAKE_CURRENT_BINARY_DIR}/cli_test_checkpoint")
file(REMOVE_RECURSE "${ck_dir}")
expect_output("checkpoint: run run-"
  --docs=2 --scale=0.001 --threads=1 --policy=isolate --checkpoint=${ck_dir})
expect_output("resume: run run-.* settled 2 task\\(s\\) \\(2 completed"
  --docs=2 --scale=0.001 --threads=1 --policy=isolate --resume=${ck_dir})
expect_exit(9 --docs=3 --scale=0.001 --threads=1 --policy=isolate
  --resume=${ck_dir})
file(REMOVE_RECURSE "${ck_dir}")

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} CLI contract check(s) failed")
endif()
