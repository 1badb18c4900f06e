# Drives lan_tool through the full lifecycle over .lansnap snapshots;
# any non-zero exit fails.
set(DB ${WORK_DIR}/pipeline.gdb)

function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "step failed (${code}): ${ARGV}")
  endif()
endfunction()

# Like run_step, but also returns the step's stdout in `out_var`.
function(run_step_output out_var)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code OUTPUT_VARIABLE out)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "step failed (${code}): ${ARGN}\n${out}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

run_step(${LAN_TOOL} generate --kind syn --count 60 --seed 3 --out ${DB})
run_step(${LAN_TOOL} stats --db ${DB})
# A database holding a graph with no nodes is rejected with a Status that
# names the graph: a clean non-zero exit, never an abort.
set(EMPTY_DB ${WORK_DIR}/pipeline.empty.gdb)
file(WRITE ${EMPTY_DB} "lan-graphdb v1\nname empty\nlabels 2\ngraphs 2\n"
     "g 2 1\nn 0 1\ne 0 1\n" "g 0 0\nn\n")
execute_process(COMMAND ${LAN_TOOL} build --db ${EMPTY_DB}
                        --out ${WORK_DIR}/pipeline.empty.lansnap
                RESULT_VARIABLE empty_code OUTPUT_VARIABLE empty_out
                ERROR_VARIABLE empty_err)
if(NOT empty_code MATCHES "^[0-9]+$" OR empty_code EQUAL 0)
  message(FATAL_ERROR "build on an empty graph exited with '${empty_code}'; "
                      "expected a non-zero exit code:\n${empty_err}")
endif()
if(NOT empty_err MATCHES "graph 1:" OR empty_err MATCHES "FATAL")
  message(FATAL_ERROR "build on an empty graph did not report it cleanly:\n"
                      "${empty_out}${empty_err}")
endif()

# A flag the subcommand does not read (here the retired --quantized) and a
# trailing flag with no value are rejected up front: exit 2 with the flag
# named on stderr, never an abort or a silent fallback to a default.
function(expect_flag_error flag)
  execute_process(COMMAND ${LAN_TOOL} ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 2 OR err MATCHES "FATAL" OR NOT err MATCHES "${flag}")
    message(FATAL_ERROR "lan_tool ${ARGN} exited with '${code}'; expected 2 "
                        "naming ${flag}:\n${out}${err}")
  endif()
endfunction()
set(BAD_SNAP ${WORK_DIR}/pipeline.bad.lansnap)
file(REMOVE ${BAD_SNAP})
expect_flag_error(--quantized build --db ${DB} --out ${BAD_SNAP} --quantized 1)
expect_flag_error(--snapshot inspect --snapshot)
if(EXISTS ${BAD_SNAP})
  message(FATAL_ERROR "build with an unknown flag still wrote ${BAD_SNAP}")
endif()
# A non-positive count exits 2 naming the flag; generate --count -3 used
# to write an empty database and exit 0.
set(BAD_DB ${WORK_DIR}/pipeline.bad.gdb)
file(REMOVE ${BAD_DB})
expect_flag_error(--count generate --kind syn --count -3 --out ${BAD_DB})
expect_flag_error(--count generate --kind syn --count 0 --out ${BAD_DB})
if(EXISTS ${BAD_DB})
  message(FATAL_ERROR "generate with a bad --count still wrote ${BAD_DB}")
endif()
# An unwritable --out is reported as a Status with exit 1, not an abort.
execute_process(COMMAND ${LAN_TOOL} generate --kind syn --count 5
                        --out ${WORK_DIR}/no-such-dir/db.gdb
                RESULT_VARIABLE write_code OUTPUT_VARIABLE write_out
                ERROR_VARIABLE write_err)
if(NOT write_code EQUAL 1 OR write_err MATCHES "FATAL" OR
   NOT write_err MATCHES "IoError")
  message(FATAL_ERROR "generate to a missing directory exited with "
                      "'${write_code}'; expected 1 with an IoError:\n"
                      "${write_out}${write_err}")
endif()

# Thread count never changes a snapshot: --build-threads only sizes the
# pool that computes construction distances, derives CGs and trains, so
# the same database and seed give byte-identical files at 1 and 4
# threads, untrained and trained. The trained 4-thread build backs the
# checks below.
function(expect_same_bytes a b)
  file(SHA256 ${a} hash_a)
  file(SHA256 ${b} hash_b)
  if(NOT hash_a STREQUAL hash_b)
    message(FATAL_ERROR "${a} and ${b} differ (${hash_a} vs ${hash_b})")
  endif()
endfunction()
foreach(queries 0 12)
  set(SNAP_T1 ${WORK_DIR}/pipeline.q${queries}.t1.lansnap)
  set(SNAP_T4 ${WORK_DIR}/pipeline.q${queries}.t4.lansnap)
  run_step(${LAN_TOOL} build --db ${DB} --out ${SNAP_T1}
           --queries ${queries} --build-threads 1)
  run_step(${LAN_TOOL} build --db ${DB} --out ${SNAP_T4}
           --queries ${queries} --build-threads 4)
  expect_same_bytes(${SNAP_T1} ${SNAP_T4})
endforeach()
set(SNAP ${WORK_DIR}/pipeline.q12.t4.lansnap)

# Observability outputs: the trace must be non-empty JSON lines, the
# metrics snapshot one parseable JSON object.
set(TRACE ${WORK_DIR}/pipeline.trace.jsonl)
set(METRICS ${WORK_DIR}/pipeline.metrics.json)
run_step(${LAN_TOOL} search --snapshot ${SNAP} --k 3 --queries 2
         --trace-out ${TRACE} --metrics-out ${METRICS})
run_step(${LAN_TOOL} diagnose --snapshot ${SNAP})
run_step(${LAN_TOOL} inspect --snapshot ${SNAP})

# --force-scalar applies to every command, snapshot ones included. The
# untrained snapshot built here also backs the `serve` section below.
set(SCALAR_SNAP ${WORK_DIR}/pipeline.scalar.lansnap)
run_step(${LAN_TOOL} build --db ${DB} --out ${SCALAR_SNAP} --queries 0
         --force-scalar 1)
run_step_output(diagnose_out ${LAN_TOOL} diagnose --snapshot ${SCALAR_SNAP}
                --force-scalar 1)
if(NOT diagnose_out MATCHES "active scalar")
  message(FATAL_ERROR "diagnose ignored --force-scalar:\n${diagnose_out}")
endif()

foreach(artifact ${TRACE} ${METRICS})
  if(NOT EXISTS ${artifact})
    message(FATAL_ERROR "search did not write ${artifact}")
  endif()
endforeach()

if(CMAKE_VERSION VERSION_LESS 3.19)
  return()  # string(JSON) unavailable; existence checks above still ran
endif()

file(STRINGS ${TRACE} trace_lines)
list(LENGTH trace_lines num_trace_lines)
if(num_trace_lines LESS 2)
  message(FATAL_ERROR "trace has ${num_trace_lines} lines; expected >= 2")
endif()
set(saw_begin FALSE)
foreach(line IN LISTS trace_lines)
  string(JSON event_type GET "${line}" type)  # fails hard on malformed JSON
  if(event_type STREQUAL "query_begin")
    set(saw_begin TRUE)
  endif()
endforeach()
if(NOT saw_begin)
  message(FATAL_ERROR "trace contains no query_begin event")
endif()

file(READ ${METRICS} metrics_json)
string(JSON num_queries GET "${metrics_json}" counters queries)
if(NOT num_queries EQUAL 2)
  message(FATAL_ERROR "metrics counted ${num_queries} queries; expected 2")
endif()
string(JSON ndc_p50 GET "${metrics_json}" histograms query_ndc p50)
if(ndc_p50 LESS_EQUAL 0)
  message(FATAL_ERROR "metrics query_ndc p50 is ${ndc_p50}; expected > 0")
endif()
# search exports the same per-query set as serve and SearchBatch.
foreach(hist query_routing_steps query_model_inferences query_cross_encodings
        query_cache_hits)
  string(JSON hist_count GET "${metrics_json}" histograms ${hist} count)
  if(NOT hist_count EQUAL 2)
    message(FATAL_ERROR "metrics ${hist} count is ${hist_count}; expected 2")
  endif()
endforeach()

# Online updates: insert + remove mutate the trained index through the
# epoch-versioned path and write successor snapshots; the stale models
# must still reopen over the grown index (inserted graphs keep their
# nearest frozen centroid and get M_rk contexts on the fly). Inserts run
# on the same pool as the build, so like the build they write the same
# bytes at 1 and 4 threads.
set(SNAP2_T1 ${WORK_DIR}/pipeline2.t1.lansnap)
set(SNAP2 ${WORK_DIR}/pipeline2.lansnap)
set(SNAP3 ${WORK_DIR}/pipeline3.lansnap)
run_step(${LAN_TOOL} insert --snapshot ${SNAP} --count 5 --seed 11
         --build-threads 1 --out ${SNAP2_T1})
run_step(${LAN_TOOL} insert --snapshot ${SNAP} --count 5 --seed 11
         --build-threads 4 --out ${SNAP2})
expect_same_bytes(${SNAP2_T1} ${SNAP2})
run_step(${LAN_TOOL} remove --snapshot ${SNAP2} --count 2 --seed 12
         --out ${SNAP3})
run_step_output(search_out ${LAN_TOOL} search --snapshot ${SNAP3} --k 3
                --queries 1)
if(NOT search_out MATCHES "65 graphs \\(63 live\\), epoch 7, trained")
  message(FATAL_ERROR "mutated snapshot did not reopen trained:\n${search_out}")
endif()

# Only the commands that run queries (search, eval, serve) take
# --ged-cache-mb; on any other it would only allocate a cache nothing
# reads, so it exits 2 like any undeclared flag and writes nothing.
set(SNAP_CACHED ${WORK_DIR}/pipeline.insert.cached.lansnap)
file(REMOVE ${SNAP_CACHED})
expect_flag_error(--ged-cache-mb insert --snapshot ${SNAP} --count 5
                  --seed 11 --ged-cache-mb 4 --out ${SNAP_CACHED})
expect_flag_error(--ged-cache-mb remove --snapshot ${SNAP} --count 2
                  --ged-cache-mb 4 --out ${SNAP_CACHED})
expect_flag_error(--ged-cache-mb build --db ${DB} --out ${SNAP_CACHED}
                  --ged-cache-mb 4)
expect_flag_error(--ged-cache-mb diagnose --snapshot ${SNAP} --ged-cache-mb 4)
if(EXISTS ${SNAP_CACHED})
  message(FATAL_ERROR "a command rejecting --ged-cache-mb still wrote "
                      "${SNAP_CACHED}")
endif()

# A non-positive --k or --queries exits 2 naming the flag (both used to
# abort inside the ground-truth and evaluation code), as does one past
# INT_MAX.
expect_flag_error(--k eval --snapshot ${SNAP3} --k 0)
expect_flag_error(--queries eval --snapshot ${SNAP3} --queries 0)
expect_flag_error(--k eval --snapshot ${SNAP3} --k 3000000000)
expect_flag_error(--k search --snapshot ${SNAP3} --k -1)

# eval --trace-out: one private trace per parallel query, concatenated as
# JSON lines (each carries its query_id).
set(EVAL_TRACE ${WORK_DIR}/pipeline.eval.trace.jsonl)
run_step(${LAN_TOOL} eval --snapshot ${SNAP3} --k 3 --queries 2
         --trace-out ${EVAL_TRACE})
if(NOT EXISTS ${EVAL_TRACE})
  message(FATAL_ERROR "eval did not write ${EVAL_TRACE}")
endif()
file(STRINGS ${EVAL_TRACE} eval_lines)
list(LENGTH eval_lines num_eval_lines)
if(num_eval_lines LESS 2)
  message(FATAL_ERROR "eval trace has ${num_eval_lines} lines; expected >= 2")
endif()
set(eval_query_ids "")
foreach(line IN LISTS eval_lines)
  string(JSON qid GET "${line}" query_id)
  list(APPEND eval_query_ids ${qid})
endforeach()
list(REMOVE_DUPLICATES eval_query_ids)
list(LENGTH eval_query_ids num_eval_queries)
if(num_eval_queries LESS 2)
  message(FATAL_ERROR
          "eval trace covers ${num_eval_queries} queries; expected >= 2")
endif()

# --- serve: embedded stats server over a snapshot -----------------------
# Launches `lan_tool serve` in the background on an ephemeral port, scrapes
# every endpoint through bare bash (/dev/tcp, no curl dependency), and
# checks that SIGTERM shuts the loop down cleanly.
find_program(BASH_PROGRAM bash)
if(NOT BASH_PROGRAM)
  return()  # the HTTP assertions need bash; everything above still ran
endif()

set(PORT_FILE ${WORK_DIR}/pipeline.serve.port)
set(PID_FILE ${WORK_DIR}/pipeline.serve.pid)
set(SERVE_LOG ${WORK_DIR}/pipeline.serve.log)
file(REMOVE ${PORT_FILE})
execute_process(
  COMMAND ${BASH_PROGRAM} -c
    "'${LAN_TOOL}' serve --snapshot '${SCALAR_SNAP}' --stats-port 0 --port-file '${PORT_FILE}' --slow-inject-every 4 --ged-cache-mb 4 --throttle-ms 1 > '${SERVE_LOG}' 2>&1 & echo $! > '${PID_FILE}'"
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "failed to launch lan_tool serve")
endif()
file(READ ${PID_FILE} SERVE_PID)
string(STRIP "${SERVE_PID}" SERVE_PID)

# serve writes the port file right after binding; poll up to 10s.
set(SERVE_PORT "")
foreach(attempt RANGE 100)
  if(EXISTS ${PORT_FILE})
    file(READ ${PORT_FILE} SERVE_PORT)
    string(STRIP "${SERVE_PORT}" SERVE_PORT)
    if(NOT SERVE_PORT STREQUAL "")
      break()
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(SERVE_PORT STREQUAL "")
  execute_process(COMMAND ${BASH_PROGRAM} -c "kill ${SERVE_PID} 2>/dev/null")
  message(FATAL_ERROR "serve never wrote its port file (log: ${SERVE_LOG})")
endif()

# Let the query loop turn over so histograms and the slow ring populate.
execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 1)

function(fetch path out_var)
  execute_process(
    COMMAND ${BASH_PROGRAM} -c
      "exec 3<>/dev/tcp/127.0.0.1/${SERVE_PORT}; printf 'GET ${path} HTTP/1.1\\r\\nHost: localhost\\r\\n\\r\\n' >&3; cat <&3"
    OUTPUT_VARIABLE response RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "fetch ${path} failed (${code})")
  endif()
  set(${out_var} "${response}" PARENT_SCOPE)
endfunction()

fetch(/healthz healthz)
if(NOT healthz MATCHES "200 OK" OR NOT healthz MATCHES "ok")
  message(FATAL_ERROR "/healthz not healthy:\n${healthz}")
endif()

fetch(/metrics metrics)
foreach(needle
        "# TYPE query_latency_seconds histogram"
        "stage_routing_seconds"
        "stage_ged_seconds_sum"
        "cache_hits"
        "query_latency_seconds_count"
        "query_routing_steps_count"
        "query_model_inferences_count"
        "query_cross_encodings_count"
        "query_cache_hits_count")
  if(NOT metrics MATCHES "${needle}")
    message(FATAL_ERROR "/metrics missing '${needle}':\n${metrics}")
  endif()
endforeach()

fetch(/statusz statusz)
foreach(needle "uptime_seconds" "queries_served" "\"metrics\":")
  if(NOT statusz MATCHES "${needle}")
    message(FATAL_ERROR "/statusz missing '${needle}':\n${statusz}")
  endif()
endforeach()

# /slowz: every retained record is a slow_query header line followed by
# its full trace (serve defaults to tracing every query).
fetch(/slowz slowz)
foreach(needle "slow_query" "\"stages\":" "query_begin")
  if(NOT slowz MATCHES "${needle}")
    message(FATAL_ERROR "/slowz missing '${needle}':\n${slowz}")
  endif()
endforeach()

# Clean SIGTERM shutdown within 10s.
execute_process(COMMAND ${BASH_PROGRAM} -c "kill -TERM ${SERVE_PID}")
set(stopped FALSE)
foreach(attempt RANGE 100)
  execute_process(COMMAND ${BASH_PROGRAM} -c "kill -0 ${SERVE_PID} 2>/dev/null"
                  RESULT_VARIABLE alive)
  if(NOT alive EQUAL 0)
    set(stopped TRUE)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT stopped)
  execute_process(COMMAND ${BASH_PROGRAM} -c "kill -9 ${SERVE_PID}")
  message(FATAL_ERROR "serve did not exit within 10s of SIGTERM")
endif()
file(READ ${SERVE_LOG} serve_log)
if(NOT serve_log MATCHES "shutting down")
  message(FATAL_ERROR "serve log missing clean-shutdown line:\n${serve_log}")
endif()
