#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite under both
# process backends (the parallel backend must preserve per-link token order
# and goldens; see docs/KERNEL.md), then gate on the observability layer's
# acceptance checks and a benchmark smoke pass (every bench binary must still
# emit well-formed BENCH_JSON lines). Faster than scripts/check.sh, which additionally sweeps
# every benchmark at full length and every example.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)"

for backend in fibers parallel; do
  echo "== ctest under DFDBG_PROCESS_BACKEND=$backend =="
  (cd build && DFDBG_PROCESS_BACKEND=$backend ctest --output-on-failure -j "$(nproc)")
done

echo "== observability gate =="
# Re-run the exporter golden-file comparison and the obs unit tests
# explicitly so a skip/filter in the main sweep cannot mask them.
./build/tests/test_obs --gtest_filter='ChromeTrace.*:Obs*:CliObs.*:TraceStats.*'

have_python=0
command -v python3 >/dev/null 2>&1 && have_python=1

echo "== flight-recorder gate =="
# Token ids come from the deterministic kernel, not from scheduling
# accidents: the journal suite runs again here so a filter in the main sweep
# cannot mask it.
./build/tests/test_journal

# End-to-end flow-event export: drive the REPL through a full decode, dump
# the journal and the profile overlay, then validate both files are loadable
# JSON with the required metadata and at least one matched "s"/"f" flow pair.
if [ "$have_python" -eq 1 ]; then
  echo "-- flow-event JSON validation (dfdbg_repl none)"
  printf 'trace on\nrun\njournal dump build/flow_check.json\nprofile export build/profile_check.json\nquit\n' \
    | ./build/examples/dfdbg_repl none >/dev/null
  python3 - build/flow_check.json build/profile_check.json <<'PYEOF'
import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    assert isinstance(doc.get("traceEvents"), list), f"{path}: no traceEvents list"
    meta = doc.get("metadata", {})
    for key in ("retained_events", "dropped_events", "flow_pairs"):
        assert key in meta, f"{path}: metadata missing {key}"
    starts = {e["id"] for e in doc["traceEvents"] if e.get("ph") == "s"}
    finishes = {e["id"] for e in doc["traceEvents"] if e.get("ph") == "f"}
    matched = starts & finishes
    assert matched, f"{path}: no matched flow start/finish pair"
    assert meta["flow_pairs"] >= len(matched), f"{path}: flow_pairs undercounts"
    print(f"ok: {path} ({len(doc['traceEvents'])} events, "
          f"{len(matched)} matched flow id(s))")
PYEOF
else
  echo "-- python3 unavailable; skipping flow-event JSON validation"
fi

echo "== debug-server gate =="
# Start dfdbg-serve on a unix socket, drive it end-to-end with dfdbg-client
# (structured verbs + CLI-compat exec), and validate the responses are
# schema-correct JSON-RPC.
echo "-- dfdbg-serve/dfdbg-client round trip"
sock="build/dfdbg_check.sock"
rm -f "$sock"
DFDBG_PROCESS_BACKEND=fibers ./build/tools/dfdbg-serve --unix "$sock" \
  >"build/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  kill -0 "$serve_pid" 2>/dev/null || { echo "FAIL: dfdbg-serve died"; cat "build/serve.log"; exit 1; }
  sleep 0.05
done
[ -S "$sock" ] || { echo "FAIL: dfdbg-serve never listened"; exit 1; }
grep -q '^LISTENING unix=' "build/serve.log" \
  || { echo "FAIL: no LISTENING line"; cat "build/serve.log"; exit 1; }
out="build/server_check.txt"
printf '%s\n' \
  ':ping' \
  ':capabilities' \
  ':catch_work {"filter":"pipe"}' \
  ':run' \
  'info links' \
  ':whence {"iface":"pipe::coeff_in"}' \
  ':shutdown' \
  | ./build/tools/dfdbg-client --unix "$sock" --raw >"$out" \
  || { echo "FAIL: dfdbg-client exited non-zero"; cat "$out"; exit 1; }
wait "$serve_pid" || { echo "FAIL: dfdbg-serve exited non-zero"; exit 1; }
if [ "$have_python" -eq 1 ]; then
  python3 - "$out" <<'PYEOF'
import json, sys
frames = [json.loads(ln) for ln in open(sys.argv[1]) if ln.strip()]
assert len(frames) == 7, f"expected 7 response frames, got {len(frames)}"
for f in frames:
    assert f.get("jsonrpc") == "2.0", f"bad jsonrpc tag: {f}"
    assert ("result" in f) != ("error" in f), f"not exactly one of result/error: {f}"
    assert "error" not in f, f"unexpected error frame: {f}"
ping, caps, bp, run, links, whence, _ = frames
assert ping["result"]["pong"] is True
assert "info_links" in caps["result"]["methods"], "capabilities missing info_links"
assert "breakpoint" in bp["result"], f"catch_work returned no breakpoint id: {bp}"
assert run["result"]["result"] == "stopped", f"run did not stop: {run}"
assert links["result"]["ok"] is True and "pipe::coeff_in" in links["result"]["output"]
assert "pipe::coeff_in" in whence["result"]["link"], f"whence on wrong link: {whence}"
assert isinstance(whence["result"]["hops"], list) and whence["result"]["hops"]
print(f"ok: {len(frames)} schema-valid frames")
PYEOF
else
  grep -q '"result"' "$out" || { echo "FAIL: no result frames"; exit 1; }
  if grep -q '"error"' "$out"; then echo "FAIL: error frame in transcript"; exit 1; fi
fi
rm -f "$sock"

echo "== subscription gate =="
# Server push: subscribe to all four streams over a unix socket, run a full
# decode, and validate the pushed notification frames (docs/PROTOCOL.md
# "Subscriptions"). --drain keeps dfdbg-client printing pushed frames after
# stdin closes, until `shutdown` drops the connection.
echo "-- subscribe/notify round trip"
sock="build/dfdbg_sub.sock"
rm -f "$sock"
DFDBG_PROCESS_BACKEND=fibers ./build/tools/dfdbg-serve --unix "$sock" \
  >"build/serve_sub.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  kill -0 "$serve_pid" 2>/dev/null || { echo "FAIL: dfdbg-serve died"; cat "build/serve_sub.log"; exit 1; }
  sleep 0.05
done
[ -S "$sock" ] || { echo "FAIL: dfdbg-serve never listened"; exit 1; }
out="build/subscribe_check.txt"
printf '%s\n' \
  ':subscribe {"stream":"journal"}' \
  ':subscribe {"stream":"info_flow"}' \
  ':subscribe {"stream":"stats"}' \
  ':subscribe {"stream":"run_events"}' \
  ':subscribe {"stream":"shard_rounds"}' \
  ':run' \
  ':unsubscribe' \
  ':shutdown' \
  | ./build/tools/dfdbg-client --unix "$sock" --raw --drain >"$out" \
  || { echo "FAIL: dfdbg-client exited non-zero"; cat "$out"; exit 1; }
wait "$serve_pid" || { echo "FAIL: dfdbg-serve exited non-zero"; exit 1; }
if [ "$have_python" -eq 1 ]; then
  python3 - "$out" <<'PYEOF'
import json, sys
frames = [json.loads(ln) for ln in open(sys.argv[1]) if ln.strip()]
streams = {"journal.delta", "flow.snapshot", "stats.delta", "run.event",
           "shard.rounds"}
responses = [f for f in frames if "id" in f]
notifs = [f for f in frames if "id" not in f]
assert len(responses) == 8, f"expected 8 responses, got {len(responses)}"
for f in responses:
    assert "error" not in f, f"error frame: {f}"
for n in notifs:
    assert n.get("jsonrpc") == "2.0", f"bad notification: {n}"
    assert n.get("method") in streams, f"unknown stream method: {n}"
    assert isinstance(n.get("params"), dict), f"notification without params: {n}"
deltas = [n for n in notifs if n["method"] == "journal.delta"]
assert deltas, "no journal.delta pushed during the run"
events = 0
cursor = None
for d in deltas:
    p = d["params"]
    for key in ("from", "next", "gap", "events"):
        assert key in p, f"journal.delta missing {key}: {d}"
    if cursor is not None:
        assert p["from"] == cursor, "journal deltas not contiguous"
    cursor = p["next"]
    events += len(p["events"])
    for ev in p["events"]:
        for key in ("t", "kind", "index"):
            assert key in ev, f"journal event missing {key}: {ev}"
assert events >= 1000, f"full decode should push >=1000 journal events, got {events}"
assert any(n["method"] == "run.event" for n in notifs), "no run.event pushed"
print(f"ok: {len(notifs)} notifications ({events} journal events, "
      f"{len(deltas)} deltas)")
PYEOF
else
  grep -q '"journal.delta"' "$out" || { echo "FAIL: no journal.delta frames"; exit 1; }
fi
rm -f "$sock"

echo "== shard-profile gate (parallel backend) =="
# The shard_rounds stream only carries data under the parallel backend: one
# notification batch per barrier-round window, one partitions[] entry per
# worker (docs/OBSERVABILITY.md "Shard profile"). info_shards must agree on
# the worker count.
sock="build/dfdbg_shards.sock"
rm -f "$sock"
DFDBG_PROCESS_BACKEND=parallel DFDBG_PARALLEL_WORKERS=2 \
  ./build/tools/dfdbg-serve --unix "$sock" >"build/serve_shards.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  kill -0 "$serve_pid" 2>/dev/null || { echo "FAIL: dfdbg-serve died"; cat "build/serve_shards.log"; exit 1; }
  sleep 0.05
done
[ -S "$sock" ] || { echo "FAIL: dfdbg-serve never listened"; exit 1; }
out="build/shards_check.txt"
printf '%s\n' \
  ':subscribe {"stream":"shard_rounds"}' \
  ':run' \
  ':info_shards' \
  ':shutdown' \
  | ./build/tools/dfdbg-client --unix "$sock" --raw --drain >"$out" \
  || { echo "FAIL: dfdbg-client exited non-zero"; cat "$out"; exit 1; }
wait "$serve_pid" || { echo "FAIL: dfdbg-serve exited non-zero"; exit 1; }
if [ "$have_python" -eq 1 ]; then
  python3 - "$out" <<'PYEOF'
import json, sys
frames = [json.loads(ln) for ln in open(sys.argv[1]) if ln.strip()]
for f in frames:
    assert "error" not in f, f"error frame: {f}"
rounds = 0
for n in (f for f in frames if f.get("method") == "shard.rounds"):
    for r in n["params"]["rounds"]:
        assert len(r["partitions"]) == 2, f"expected 2 partitions: {r}"
        for key in ("round", "vtime", "wall_ns", "drain_ns", "boundary_hwm"):
            assert key in r, f"round record missing {key}: {r}"
        rounds += 1
assert rounds > 0, "no shard.rounds pushed during a parallel run"
shards = next(f for f in frames
              if "id" in f and "shards" in f.get("result", {}))["result"]
assert shards["backend"] == "parallel", f"wrong backend: {shards}"
assert shards["workers"] == 2 and len(shards["shards"]) == 2, f"bad workers: {shards}"
print(f"ok: {rounds} barrier round(s) streamed, info_shards agrees")
PYEOF
else
  grep -q '"shard.rounds"' "$out" || { echo "FAIL: no shard.rounds frames"; exit 1; }
fi
rm -f "$sock"

echo "== determinism sweep (parallel backend) =="
# The hard gate behind the parallel backend's barrier protocol: at every
# worker count, two runs of the same seeded wide graph must produce
# byte-identical merged journal transcripts. Per-round journal merges,
# deferred notifies, boundary drains and sparse wakes all claim to keep the
# schedule a function of the program — this is where that claim is checked.
for k in 2 4 8; do
  ./build/tools/dfdbg-transcript "$k" 7 > "build/transcript_a.$k" \
    || { echo "FAIL: dfdbg-transcript run 1 (K=$k)"; exit 1; }
  ./build/tools/dfdbg-transcript "$k" 7 > "build/transcript_b.$k" \
    || { echo "FAIL: dfdbg-transcript run 2 (K=$k)"; exit 1; }
  cmp -s "build/transcript_a.$k" "build/transcript_b.$k" \
    || { echo "FAIL: transcript diverged between runs at K=$k"; exit 1; }
  [ -s "build/transcript_a.$k" ] || { echo "FAIL: empty transcript at K=$k"; exit 1; }
  echo "ok: K=$k byte-identical ($(wc -l < "build/transcript_a.$k") transcript lines)"
done

echo "== dashboard smoke (dfdbg-top) =="
# dfdbg-top subscribes to every stream and renders from pushed frames alone;
# --no-ansi --run --max-frames bounds it for CI.
sock="build/dfdbg_top.sock"
rm -f "$sock"
./build/tools/dfdbg-serve --unix "$sock" >"build/serve_top.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  kill -0 "$serve_pid" 2>/dev/null || { echo "FAIL: dfdbg-serve died"; cat "build/serve_top.log"; exit 1; }
  sleep 0.05
done
./build/tools/dfdbg-top --unix "$sock" --no-ansi --run --max-frames 200 \
  >"build/top_check.txt" 2>&1 \
  || { echo "FAIL: dfdbg-top exited non-zero"; cat "build/top_check.txt"; exit 1; }
grep -q 'dfdbg-top  sim t=' "build/top_check.txt" || { echo "FAIL: dfdbg-top rendered nothing"; cat "build/top_check.txt"; exit 1; }
grep -q '^links' "build/top_check.txt" || { echo "FAIL: dfdbg-top rendered no link table"; cat "build/top_check.txt"; exit 1; }
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
rm -f "$sock"
echo "ok: dfdbg-top rendered from pushed frames"

echo "== fleet gate (protocol v2, 8 sessions / 2 shards) =="
# Multi-session host: create 8 wide-graph sessions pinned alternately to two
# shards, run each to completion, and validate isolation (each session's
# journal/token counts are its own; the default session records nothing),
# the --session client flag, the v1 default-session alias, and clean idle
# eviction (docs/PROTOCOL.md "Sessions"). The 3 s idle timeout sits well
# above the time the checks below take on a loaded host, so no session is
# reaped before the eviction check asks for it.
sock="build/dfdbg_fleet.sock"
rm -f "$sock"
./build/tools/dfdbg-serve --unix "$sock" --shards 2 --max-sessions 32 \
  --idle-evict-ms 3000 >"build/serve_fleet.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  kill -0 "$serve_pid" 2>/dev/null || { echo "FAIL: dfdbg-serve died"; cat "build/serve_fleet.log"; exit 1; }
  sleep 0.05
done
[ -S "$sock" ] || { echo "FAIL: dfdbg-serve never listened"; exit 1; }
out="build/fleet_check.txt"
{
  printf ':capabilities\n'
  for i in $(seq 0 7); do
    printf ':session_create {"rig":"wide","name":"w%d","shard":%d,"pipelines":1,"stages":1,"tokens":%d,"spin":1}\n' \
      "$i" $((i % 2)) $((4 + i))
    printf ':run\n'
    printf ':session_detach\n'
  done
  printf ':session_list\n'
} | ./build/tools/dfdbg-client --unix "$sock" --raw >"$out" \
  || { echo "FAIL: fleet dfdbg-client exited non-zero"; cat "$out"; exit 1; }
# --session attaches before the first command; the attached session answers.
# Checked right after the creating client, while w3 is freshly detached.
printf ':info_links\n' \
  | ./build/tools/dfdbg-client --unix "$sock" --raw --session w3 >"build/fleet_session_flag.txt" \
  || { echo "FAIL: dfdbg-client --session exited non-zero"; cat "build/fleet_session_flag.txt"; exit 1; }
grep -q '"links"' "build/fleet_session_flag.txt" \
  || { echo "FAIL: --session w3 got no links"; cat "build/fleet_session_flag.txt"; exit 1; }
if [ "$have_python" -eq 1 ]; then
  python3 - "$out" <<'PYEOF'
import json, sys
frames = [json.loads(ln) for ln in open(sys.argv[1]) if ln.strip()]
responses = [f for f in frames if "id" in f]
for f in responses:
    assert "error" not in f, f"error frame: {f}"
caps = responses[0]["result"]
assert caps["protocol"] == 2, f"expected protocol 2: {caps}"
assert caps["shards"] == 2, f"expected 2 shards: {caps}"
assert caps["session_create"] is True, f"session_create not advertised: {caps}"
listing = responses[-1]["result"]
assert listing["count"] == 9, f"expected 8 sessions + default: {listing}"
by_name = {s["name"]: s for s in listing["sessions"]}
for i in range(8):
    s = by_name[f"w{i}"]
    assert s["shard"] == i % 2, f"w{i} pinned to wrong shard: {s}"
    # Isolation: each session recorded its own run into its private journal,
    # and bigger graphs recorded strictly more token uids.
    assert s["journal_events"] > 0, f"w{i} recorded nothing: {s}"
    assert s["last_token"] > 0, f"w{i} allocated no token uids: {s}"
    if i > 0:
        assert s["last_token"] > by_name[f"w{i-1}"]["last_token"], \
            f"w{i} token count not isolated from w{i-1}: {s}"
default = next(s for s in listing["sessions"] if s["default"])
assert default["journal_events"] == 0, \
    f"wide-session runs leaked into the default session journal: {default}"
print(f"ok: 8 sessions across 2 shards, isolation holds")
PYEOF
else
  grep -q '"count":9' "$out" || { echo "FAIL: fleet session_list wrong"; cat "$out"; exit 1; }
fi
# v1 alias: a client that never mentions sessions is served by the default
# H.264 session exactly as the single-session server answered.
printf '%s\n' ':ping' ':info_links' \
  | ./build/tools/dfdbg-client --unix "$sock" --raw >"build/fleet_v1.txt" \
  || { echo "FAIL: v1-compat client exited non-zero"; cat "build/fleet_v1.txt"; exit 1; }
grep -q '"pong":true' "build/fleet_v1.txt" || { echo "FAIL: v1 ping"; exit 1; }
grep -q 'coeff_in' "build/fleet_v1.txt" \
  || { echo "FAIL: v1 info_links did not serve the default decoder session"; cat "build/fleet_v1.txt"; exit 1; }
if grep -q '"error"' "build/fleet_v1.txt"; then echo "FAIL: v1 transcript has errors"; exit 1; fi
# Clean eviction: with every client gone, the 3 s idle timeout (polled every
# 100 ms) reaps all 8 wide sessions; the default session is exempt.
sleep 4
printf ':session_list\n:shutdown\n' \
  | ./build/tools/dfdbg-client --unix "$sock" --raw >"build/fleet_evict.txt" \
  || { echo "FAIL: evict-check client exited non-zero"; cat "build/fleet_evict.txt"; exit 1; }
wait "$serve_pid" || { echo "FAIL: dfdbg-serve exited non-zero"; exit 1; }
grep -q '"count":1' "build/fleet_evict.txt" \
  || { echo "FAIL: idle sessions not evicted"; cat "build/fleet_evict.txt"; exit 1; }
rm -f "$sock"
echo "ok: fleet gate (isolation, --session, v1 alias, idle eviction)"

echo "== sanitizer gate (ASan+UBSan, fibers) =="
# The token hot path (SBO Value, ring-buffer Link, batched push_n/pop_n) is
# manual-lifetime code: build it under AddressSanitizer + UBSan and run the
# tests that hammer it hardest. So is a debugger hook parked at a stop while
# the session adds or removes hooks and deletes fired temporary rules: the
# session and CLI suites drive those paths. The instrumentation port keeps a
# running hook's callable alive by a per-hook running count while hooks are
# added, removed and symbols interned mid-fire: test_sim_kernel's
# Instrument.* tests drive that. Everything runs on the fibers that ship:
# FiberContext announces each stack switch to ASan, test_sim_backend's
# FiberSwitch.* tests drive those annotations without a kernel, and the
# parallel and fleet suites add fibers resumed on worker and shard threads.
# The server and subscription suites feed client input through the method
# table's param checks, dispatch and push-stream bindings.
# Leak detection stays on.
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
asan_suites="test_link_ring test_journal test_debug_session test_cli test_sim_kernel
  test_sim_backend test_parallel_backend test_fleet test_server test_subscribe"
cmake --build build-asan -j "$(nproc)" --target $asan_suites
for t in $asan_suites; do
  echo "-- $t under ASan+UBSan"
  DFDBG_PROCESS_BACKEND=fibers ./build-asan/tests/$t >/dev/null \
    || { echo "FAIL: $t under sanitizers"; exit 1; }
done

echo "== sanitizer gate (TSan, fibers) =="
# The parallel backend's worker threads, boundary channels and barrier
# protocol are the only genuinely concurrent code in the tree, and the sharded fleet
# host is the other concurrent subsystem: cross-shard session lookups
# (shared_ptr pins vs. owning-shard destroy), racing session_create on two
# shards, client migration and cross-shard detach. The metrics registry's
# per-thread cells are the third: single-writer adds, folds and resets from
# other threads, blocks adopted after thread exit (test_obs), and the journal
# shards that record and intern from worker threads (test_journal). Build
# their suites under ThreadSanitizer and run them whole, on fibers:
# FiberContext hands each switch to TSan as a fiber switch, so fibers that
# park on one worker and resume on another are checked as they ship.
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
cmake --build build-tsan -j "$(nproc)" --target test_parallel_backend test_fleet \
  test_sim_backend test_obs test_journal
for t in test_parallel_backend test_fleet test_sim_backend test_obs test_journal; do
  echo "-- $t under TSan"
  DFDBG_PROCESS_BACKEND=fibers ./build-tsan/tests/$t >/dev/null \
    || { echo "FAIL: $t under TSan"; exit 1; }
done

echo "== bench smoke (BENCH_JSON well-formedness) =="
# A token measurement time per benchmark: enough to prove the binary runs
# and its BENCH_JSON records parse. Validated with python3 when available.
for bench in build/bench/bench_*; do
  [ -x "$bench" ] || continue
  name="$(basename "$bench")"
  out="$("$bench" --benchmark_min_time=0.01 --benchmark_color=false 2>/dev/null)" \
    || { echo "FAIL: $name exited non-zero"; exit 1; }
  lines="$(printf '%s\n' "$out" | grep -c '^BENCH_JSON ' || true)"
  if [ "$lines" -eq 0 ]; then
    echo "FAIL: $name emitted no BENCH_JSON line"
    exit 1
  fi
  if [ "$have_python" -eq 1 ]; then
    printf '%s\n' "$out" | sed -n 's/^BENCH_JSON //p' \
      | python3 -c 'import json,sys
for ln in sys.stdin:
    json.loads(ln)' \
      || { echo "FAIL: $name emitted malformed BENCH_JSON"; exit 1; }
  fi
  if [ "$name" = bench_scaling ] && [ "$have_python" -eq 1 ]; then
    # An attached, unarmed debugger must not allocate per hook invocation.
    printf '%s\n' "$out" | sed -n 's/^BENCH_JSON //p' | python3 -c 'import json,sys
rows = [r for r in map(json.loads, sys.stdin) if r["name"] == "BM_AttachedHotPath"]
assert rows, "BM_AttachedHotPath emitted no BENCH_JSON line"
a = rows[0]["counters"]["allocs_per_hook"]
assert a <= 0.01, f"BM_AttachedHotPath allocs_per_hook {a} > 0.01"
print(f"ok: BM_AttachedHotPath allocs_per_hook {a:.6f} <= 0.01")' \
      || { echo "FAIL: attached hook path allocates"; exit 1; }
    # Turning obs on (instruments + journal) must add no allocation per
    # event: the attached decode with obs on allocates what it does obs off.
    printf '%s\n' "$out" | sed -n 's/^BENCH_JSON //p' | python3 -c 'import json,sys
rows = {r["name"]: r for r in map(json.loads, sys.stdin)}
off = rows["BM_AttachedDecode/1"]["counters"]["allocs_per_push"]
on = rows["BM_AttachedDecode/2"]["counters"]["allocs_per_push"]
assert on - off <= 0.001, f"BM_AttachedDecode/2 allocs_per_push {on} exceeds /1 {off} by > 0.001"
print(f"ok: BM_AttachedDecode allocs_per_push obs on {on:.6f} vs off {off:.6f} (<= +0.001)")' \
      || { echo "FAIL: obs-on decode allocates per event"; exit 1; }
    # The kernel resumes a lone timed wait in place: the plain decode makes
    # fewer than two fiber switches per dispatch. And attaching a debugger
    # (obs off or on) must not change the schedule: all three variants
    # dispatch the same per push. Both are exact kernel counts, not timings.
    printf '%s\n' "$out" | sed -n 's/^BENCH_JSON //p' | python3 -c 'import json,sys
rows = {r["name"]: r["counters"] for r in map(json.loads, sys.stdin)}
spd = rows["BM_AttachedDecode/0"]["switches_per_dispatch"]
assert spd < 2, f"BM_AttachedDecode/0 switches_per_dispatch {spd} is not below 2: no timed wait resumed in place"
dpp = {a: rows[f"BM_AttachedDecode/{a}"]["dispatches_per_push"] for a in (0, 1, 2)}
assert len(set(dpp.values())) == 1, f"BM_AttachedDecode dispatches_per_push differ: {dpp}"
print(f"ok: BM_AttachedDecode/0 switches_per_dispatch {spd:.5f} < 2; dispatches_per_push {dpp[0]:.5f} on /0 /1 /2")' \
      || { echo "FAIL: decode schedule counts"; exit 1; }
    # A journal record next to the bare ring store it performs: both rows
    # must be there; the ratio is printed, not gated (timing is host noise).
    printf '%s\n' "$out" | sed -n 's/^BENCH_JSON //p' | python3 -c 'import json,sys
rows = {r["name"]: r for r in map(json.loads, sys.stdin)}
bare = rows["BM_JournalRecord/0"]["counters"]["ns_per_record"]
rec = rows["BM_JournalRecord/1"]["counters"]["ns_per_record"]
assert bare > 0 and rec > 0, (bare, rec)
print(f"ok: BM_JournalRecord {rec:.2f} ns/record vs bare store {bare:.2f} ns ({rec / bare:.2f}x, not gated)")' \
      || { echo "FAIL: BM_JournalRecord rows missing"; exit 1; }
    # Sparse wakes, the one mechanism on top of the parallel backend's barrier
    # protocol that pays for itself: on the latency-modelled graph some shards
    # have no ready work in some rounds and must stay parked. A count, not a
    # timing, so host noise cannot make it flaky.
    printf '%s\n' "$out" | sed -n 's/^BENCH_JSON //p' | python3 -c 'import json,sys
rows = {r["name"]: r["counters"] for r in map(json.loads, sys.stdin)}
skipped = rows["BM_ParallelLatency/4"]["skipped_wakes"]
assert skipped > 0, f"BM_ParallelLatency/4 skipped_wakes {skipped}: every shard was woken every round"
print(f"ok: BM_ParallelLatency/4 skipped_wakes {skipped:.0f} > 0")' \
      || { echo "FAIL: sparse wakes never skipped a shard"; exit 1; }
  fi
  echo "ok: $name ($lines BENCH_JSON lines)"
done

# Aggregate rows of repeated runs must say which statistic they hold, and
# the cv row carries a ratio, never a time.
if [ "$have_python" -eq 1 ]; then
  ./build/bench/bench_scaling --benchmark_filter='^BM_FiberSwitch$' --benchmark_repetitions=2 \
    --benchmark_min_time=0.01 --benchmark_color=false 2>/dev/null | sed -n 's/^BENCH_JSON //p' \
    | python3 -c 'import json,sys
rows = {r["name"]: r for r in map(json.loads, sys.stdin)}
for stat in ("mean", "median", "stddev", "cv"):
    r = rows[f"BM_FiberSwitch_{stat}"]
    label = r.get("aggregate")
    assert label == stat, f"{stat} row labelled {label}"
    assert ("cv" in r) == (stat == "cv") and ("ns_per_op" in r) == (stat != "cv"), r
assert 0 <= rows["BM_FiberSwitch_cv"]["cv"] < 1, rows["BM_FiberSwitch_cv"]
assert "aggregate" not in rows["BM_FiberSwitch"]
print("ok: repetition aggregates labelled (mean, median, stddev, cv)")' \
    || { echo "FAIL: BENCH_JSON aggregate rows mislabelled"; exit 1; }
fi

echo "== bench regression report (non-fatal) =="
# Diff the newest two committed BENCH_*.json aggregates and surface any
# >20% ns_per_op growth in the build log. Informational only: benchmark
# noise on shared CI hardware would make a hard gate flaky.
if [ "$have_python" -eq 1 ]; then
  python3 scripts/bench_compare.py \
    || echo "note: throughput regressions flagged above (non-fatal)"
else
  echo "-- python3 unavailable; skipping bench comparison"
fi

echo "ALL BUILD CHECKS PASSED"
