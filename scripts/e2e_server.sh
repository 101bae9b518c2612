#!/usr/bin/env bash
# End-to-end smoke of the real aerodromed binary, as CI runs it.
#
#   scripts/e2e_server.sh [single|sharded|chaos|all]   (default: all)
#
# single  — build, boot on an ephemeral port, replay golden traces over
#           HTTP (verdicts must match the local CLI byte for byte),
#           exercise the session API with curl, then SIGTERM and require
#           a clean drain within the deadline.
# sharded — a router over two backends: golden replay through the
#           router, then a kill -9'd backend mid-session. The orphaned
#           session must KEEP FEEDING — the router replays its journal
#           onto the survivor — and its final verdict must match the
#           local CLI. Clean drain of the survivors.
# chaos   — a router (with -chaos fault injection on its backend path)
#           over three backends, hammered by concurrent incremental CLI
#           replays. kill -9 a backend mid-stream, then kill -9 the
#           router itself and restart it on the same port. Every keyed
#           session must finish with a verdict identical to the local
#           sequential check; zero hard failures allowed.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-all}"

BINDIR=$(mktemp -d)
BIN="$BINDIR/aerodromed"
CLI="$BINDIR/aerodrome"
TMPDIR_E2E=$(mktemp -d)
# Where daemon logs land when a leg fails: CI uploads this directory as
# an artifact, so a red leg ships the router/backend logs that explain it
# instead of just the curl error that tripped it.
ARTIFACT_DIR="${E2E_LOG_DIR:-$PWD/e2e-logs}"
PIDS=()
# Hardened cleanup: the chaos leg kill -9s daemons mid-stream, so any
# survivor may be wedged mid-write — SIGKILL everything we ever started
# (idempotent on the already-dead), reap, then sweep the temp dirs. On a
# failing exit, first dump every captured daemon log to stdout and
# preserve a copy under $ARTIFACT_DIR for CI upload.
cleanup() {
    local code=$?
    for p in "${PIDS[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    if [ "$code" -ne 0 ]; then
        echo "=== e2e leg failed (exit $code): captured daemon logs follow ==="
        local log
        for log in "$TMPDIR_E2E"/*.log; do
            [ -f "$log" ] || continue
            echo "---- ${log##*/} ----"
            cat "$log"
        done
        mkdir -p "$ARTIFACT_DIR"
        cp "$TMPDIR_E2E"/*.log "$ARTIFACT_DIR"/ 2>/dev/null || true
        echo "=== daemon logs preserved in $ARTIFACT_DIR ==="
    fi
    rm -rf "$BINDIR" "$TMPDIR_E2E"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/aerodromed
go build -o "$CLI" ./cmd/aerodrome

# boot_daemon LOGFILE ARGS... — starts an aerodromed in this shell (so
# `wait` works) and leaves its pid/address in BOOT_PID/BOOT_ADDR.
boot_daemon() {
    local log="$1"; shift
    "$BIN" "$@" >"$log" 2>&1 &
    BOOT_PID=$!
    PIDS+=("$BOOT_PID")
    BOOT_ADDR=
    for _ in $(seq 1 100); do
        BOOT_ADDR=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$log" | head -1)
        [ -n "$BOOT_ADDR" ] && break
        kill -0 "$BOOT_PID" 2>/dev/null || { echo "daemon died:"; cat "$log"; exit 1; }
        sleep 0.1
    done
    [ -n "$BOOT_ADDR" ] || { echo "daemon never became ready:"; cat "$log"; exit 1; }
}

# await_exit PID LOGFILE NAME — SIGTERM already sent; require exit 0 and a
# clean-drain log line within the deadline.
await_exit() {
    local pid="$1" log="$2" name="$3"
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "$name did not exit within 10s of SIGTERM"; cat "$log"; exit 1
    fi
    set +e; wait "$pid"; local code=$?; set -e
    [ "$code" -eq 0 ] || { echo "$name exited $code after SIGTERM:"; cat "$log"; exit 1; }
    grep -q "drained cleanly" "$log" || { echo "no clean-drain log for $name:"; cat "$log"; exit 1; }
}

# normalize OUT OUT — strip the local renderer's symbol names (the wire
# format deliberately does not carry them) down to verdict, violation
# index and check kind, so local and remote CLI output compare equal.
normalize() {
    printf '%s\n' "$1" | sed -E \
        -e 's/^(result: (NOT )?conflict serializable).*/\1/' \
        -e "s/\$/ $(printf '%s' "$2" | grep -oE 'at event [0-9]+' || true)/" \
        -e "s/\$/ $(printf '%s' "$2" | grep -oE '[a-z]+-[a-z-]+ check' || true)/"
}

# ---- single: one daemon, golden replay, session API, clean drain -----------

leg_single() {
    local LOG="$TMPDIR_E2E/single.log"
    boot_daemon "$LOG" -addr 127.0.0.1:0 -session-ttl 1m
    local PID=$BOOT_PID ADDR=$BOOT_ADDR
    local BASE="http://$ADDR"
    echo "daemon up at $BASE"

    curl -fsS "$BASE/healthz" | grep -q '"ok"' || { echo "healthz failed"; exit 1; }

    # Golden replay over HTTP: the remote CLI verdict must match the local
    # one on verdict, violation index and check kind.
    local trace f local_out remote_out local_norm remote_norm
    for trace in sharded-none sharded-cross chain-lock phase-delayed; do
        f="testdata/golden/$trace.std"
        local_out=$("$CLI" -q "$f" 2>/dev/null || true)
        remote_out=$("$CLI" -q -remote "$BASE" "$f" 2>/dev/null || true)
        local_norm=$(normalize "$local_out" "$local_out")
        remote_norm=$(normalize "$remote_out" "$remote_out")
        if [ "$local_norm" != "$remote_norm" ]; then
            echo "verdict mismatch on $trace:"
            echo "  local:  $local_out"
            echo "  remote: $remote_out"
            exit 1
        fi
        echo "golden $trace: verdicts agree ($local_norm)"
    done

    # Raw curl check: the wire format is plain HTTP + JSON.
    curl -fsS --data-binary @testdata/golden/sharded-cross.std "$BASE/v1/check" \
        | grep -q '"serializable":false' || { echo "curl check failed"; exit 1; }

    # Session API with curl: create, feed two chunks (split mid-line), final report.
    local SID
    SID=$(curl -fsS -X POST "$BASE/v1/sessions" | sed 's/.*"id":"\([^"]*\)".*/\1/')
    printf 't1|begin|0\nt1|w(' | curl -fsS --data-binary @- "$BASE/v1/sessions/$SID/events" >/dev/null
    printf 'x)|1\nt1|end|0\n'  | curl -fsS --data-binary @- "$BASE/v1/sessions/$SID/events" >/dev/null
    curl -fsS -X DELETE "$BASE/v1/sessions/$SID" \
        | grep -q '"serializable":true.*"events":3\|"events":3.*"serializable":true' \
        || { echo "session flow failed"; exit 1; }
    echo "session flow ok"

    # Dual-analysis session: one event stream, two verdicts. The trace
    # violates atomicity early (t2's locked write splits t1's transaction)
    # while the data race on z only appears at the very end — so the
    # session must keep consuming after the atomicity latch, and the final
    # report must carry both per-analysis entries.
    local DREP
    SID=$(curl -fsS -X POST -H 'Content-Type: application/json' \
        -d '{"analyses":["atomicity","hbrace"]}' "$BASE/v1/sessions" \
        | sed 's/.*"id":"\([^"]*\)".*/\1/')
    printf 't1|begin|0\nt1|acq(l)|0\nt1|r(x)|0\nt1|rel(l)|0\nt2|acq(l)|0\nt2|w(x)|0\nt2|rel(l)|0\n' \
        | curl -fsS --data-binary @- "$BASE/v1/sessions/$SID/events" >/dev/null
    printf 't1|acq(l)|0\nt1|w(x)|0\nt1|rel(l)|0\nt1|end|0\nt2|w(z)|0\nt3|w(z)|0\n' \
        | curl -fsS --data-binary @- "$BASE/v1/sessions/$SID/events" >/dev/null
    DREP=$(curl -fsS -X DELETE "$BASE/v1/sessions/$SID")
    echo "$DREP" | grep -q '"serializable":false' \
        || { echo "dual session: no atomicity violation: $DREP"; exit 1; }
    echo "$DREP" | grep -q '"analysis":"atomicity"' \
        || { echo "dual session: no atomicity entry: $DREP"; exit 1; }
    echo "$DREP" | grep -q '"analysis":"hbrace"' \
        || { echo "dual session: no hbrace entry: $DREP"; exit 1; }
    echo "$DREP" | grep -q '"check":"write-write"' \
        || { echo "dual session: no write-write race verdict: $DREP"; exit 1; }
    echo "dual-analysis session ok"

    curl -fsS "$BASE/metrics" | grep -q '"events_total"' || { echo "metrics failed"; exit 1; }

    # Request-ID contract: a client-supplied ID is echoed verbatim; an
    # absent one is generated at the edge.
    local RID
    RID=$(curl -fsS -D - -o /dev/null -H "X-Aerodrome-Request-Id: e2e-single-rid" "$BASE/healthz" \
        | tr -d '\r' | sed -n 's/^[Xx]-[Aa]erodrome-[Rr]equest-[Ii]d: *//p' | head -1)
    [ "$RID" = "e2e-single-rid" ] || { echo "request id not echoed (got '$RID')"; exit 1; }
    RID=$(curl -fsS -D - -o /dev/null "$BASE/healthz" \
        | tr -d '\r' | sed -n 's/^[Xx]-[Aa]erodrome-[Rr]equest-[Ii]d: *//p' | head -1)
    [ -n "$RID" ] || { echo "no request id generated at the edge"; exit 1; }
    echo "request-id contract ok"

    # Observability surface: the JSON /metrics answers per-stage latency
    # quantiles and engine introspection; ?format=prom exposes the same
    # series as Prometheus text with non-zero stage counts.
    local METRICS PROM
    METRICS=$(curl -fsS "$BASE/metrics")
    echo "$METRICS" | grep -q '"stages"' || { echo "no stages section in metrics"; exit 1; }
    echo "$METRICS" | grep -q '"p99_ms"' || { echo "no stage p99 in metrics"; exit 1; }
    echo "$METRICS" | grep -q '"epoch_hits"' || { echo "no engine counters in metrics"; exit 1; }
    echo "$METRICS" | grep -q '"epoch_hit_rate"' || { echo "no epoch hit rate in metrics"; exit 1; }
    PROM=$(curl -fsS "$BASE/metrics?format=prom")
    echo "$PROM" | grep -q '^# TYPE aerodromed_stage_duration_seconds histogram' \
        || { echo "no prom stage histogram"; exit 1; }
    echo "$PROM" | grep -Eq '^aerodromed_stage_duration_seconds_count\{stage="check"\} [1-9]' \
        || { echo "prom check-stage count never incremented"; exit 1; }
    echo "$PROM" | grep -Eq '^aerodromed_events_total [1-9]' \
        || { echo "prom events_total missing"; exit 1; }
    echo "observability surface ok"

    # Graceful-shutdown drain check: SIGTERM must exit 0 within the deadline.
    kill -TERM "$PID"
    await_exit "$PID" "$LOG" "daemon"
    echo "graceful drain ok"
}

# ---- sharded: router + two backends, journaled failover --------------------

leg_sharded() {
    local LOG_B0="$TMPDIR_E2E/backend0.log"
    local LOG_B1="$TMPDIR_E2E/backend1.log"
    local LOG_RT="$TMPDIR_E2E/router.log"
    boot_daemon "$LOG_B0" -addr 127.0.0.1:0
    local PID_B0=$BOOT_PID ADDR_B0=$BOOT_ADDR
    boot_daemon "$LOG_B1" -addr 127.0.0.1:0
    local PID_B1=$BOOT_PID ADDR_B1=$BOOT_ADDR
    boot_daemon "$LOG_RT" -shard \
        -backends "http://$ADDR_B0,http://$ADDR_B1" -probe-interval 100ms -addr 127.0.0.1:0
    local PID_RT=$BOOT_PID ADDR_RT=$BOOT_ADDR
    local RBASE="http://$ADDR_RT"
    echo "router up at $RBASE over http://$ADDR_B0 and http://$ADDR_B1"

    curl -fsS "$RBASE/healthz" | grep -q '"backends_healthy":2' \
        || { echo "router healthz failed"; curl -sS "$RBASE/healthz"; exit 1; }

    # Golden replay through the router: verdicts must match the local CLI,
    # exactly as for the single daemon.
    local trace f local_out remote_out local_norm remote_norm
    for trace in sharded-none sharded-cross; do
        f="testdata/golden/$trace.std"
        local_out=$("$CLI" -q "$f" 2>/dev/null || true)
        remote_out=$("$CLI" -q -remote "$RBASE" -trace "$trace" "$f" 2>/dev/null || true)
        local_norm=$(normalize "$local_out" "$local_out")
        remote_norm=$(normalize "$remote_out" "$remote_out")
        if [ "$local_norm" != "$remote_norm" ]; then
            echo "routed verdict mismatch on $trace:"
            echo "  local:  $local_out"
            echo "  remote: $remote_out"
            exit 1
        fi
        echo "routed golden $trace: verdicts agree ($local_norm)"
    done

    # Request-ID round trip through the sharded topology: an ID supplied
    # at the router edge is echoed on the response AND shows up on the
    # backend's own access log — the proxied hop carried the header.
    local RID
    RID=$(curl -fsS -D - -o /dev/null -H "X-Aerodrome-Request-Id: e2e-sharded-rid" \
        --data-binary @testdata/golden/sharded-none.std "$RBASE/v1/check" \
        | tr -d '\r' | sed -n 's/^[Xx]-[Aa]erodrome-[Rr]equest-[Ii]d: *//p' | head -1)
    [ "$RID" = "e2e-sharded-rid" ] || { echo "routed request id not echoed (got '$RID')"; exit 1; }
    grep -q 'id=e2e-sharded-rid' "$LOG_B0" "$LOG_B1" \
        || { echo "request id never reached a backend access log"; exit 1; }
    echo "request-id propagated router -> backend"

    # Open keyed sessions until both backends hold one (the ring splits keys;
    # a handful of attempts suffices). Remember one session per backend.
    local SID_B0= SID_B1= KEY_B0= KEY_B1= HDRS SID BACKEND i
    for i in $(seq 1 32); do
        HDRS="$TMPDIR_E2E/create-$i.hdrs"
        SID=$(curl -fsS -D "$HDRS" -X POST "$RBASE/v1/sessions?trace=key-$i" \
            | sed 's/.*"id":"\([^"]*\)".*/\1/')
        BACKEND=$(tr -d '\r' <"$HDRS" | sed -n 's/^[Xx]-[Aa]erodrome-[Bb]ackend: *//p' | head -1)
        case "$BACKEND" in
            "http://$ADDR_B0") [ -n "$SID_B0" ] || { SID_B0=$SID; KEY_B0="key-$i"; } ;;
            "http://$ADDR_B1") [ -n "$SID_B1" ] || { SID_B1=$SID; KEY_B1="key-$i"; } ;;
            *) echo "unexpected backend header '$BACKEND'"; exit 1 ;;
        esac
        [ -n "$SID_B0" ] && [ -n "$SID_B1" ] && break
    done
    [ -n "$SID_B0" ] && [ -n "$SID_B1" ] || { echo "sessions never landed on both backends"; exit 1; }
    echo "sessions placed: $SID_B0 on backend0, $SID_B1 on backend1"

    # Feed the backend0 session BEFORE the kill: these bytes exist only in
    # that backend's engine and the router's journal.
    printf 't1|begin|0\nt1|w(x)|1\n' | curl -fsS --data-binary @- \
        -H "X-Aerodrome-Trace: $KEY_B0" -H "X-Aerodrome-Chunk-Seq: 0" \
        "$RBASE/v1/sessions/$SID_B0/events" >/dev/null \
        || { echo "pre-kill feed failed"; exit 1; }

    # Kill backend0 hard (no drain — this is the failure case) and wait for
    # the router's prober to notice.
    kill -9 "$PID_B0"
    for _ in $(seq 1 100); do
        curl -fsS "$RBASE/healthz" 2>/dev/null | grep -q '"backends_healthy":1' && break
        sleep 0.1
    done
    curl -fsS "$RBASE/healthz" | grep -q '"backends_healthy":1' \
        || { echo "router never noticed the dead backend"; exit 1; }

    # The orphaned session must KEEP FEEDING: the router recreates it on the
    # survivor and replays the journal, transparently, inside this request.
    local CODE
    CODE=$(printf 't1|end|0\n' | curl -s -o /dev/null -w '%{http_code}' \
        --data-binary @- -H "X-Aerodrome-Trace: $KEY_B0" -H "X-Aerodrome-Chunk-Seq: 1" \
        "$RBASE/v1/sessions/$SID_B0/events")
    [ "$CODE" = "200" ] || { echo "failover feed: HTTP $CODE, want 200"; cat "$LOG_RT"; exit 1; }

    # Verdict continuity: the failed-over session's report covers ALL its
    # events, including the ones fed before the kill.
    curl -fsS -X DELETE -H "X-Aerodrome-Trace: $KEY_B0" "$RBASE/v1/sessions/$SID_B0" \
        | grep -q '"serializable":true.*"events":3\|"events":3.*"serializable":true' \
        || { echo "failed-over session report wrong"; exit 1; }

    # The survivor's own session keeps feeding, and new sessions are still
    # admitted (failover placement).
    printf 't9|begin|0\nt9|w(y)|1\nt9|end|0\n' | curl -fsS --data-binary @- \
        -H "X-Aerodrome-Trace: $KEY_B1" "$RBASE/v1/sessions/$SID_B1/events" >/dev/null \
        || { echo "surviving session feed failed"; exit 1; }
    curl -fsS -X POST "$RBASE/v1/sessions?trace=failover" >/dev/null \
        || { echo "create after backend loss failed"; exit 1; }

    # The failover left its fingerprints in the metrics.
    local METRICS
    METRICS=$(curl -fsS "$RBASE/metrics")
    echo "$METRICS" | grep -q '"failovers_total":[1-9]' \
        || { echo "no failover counted: $METRICS"; exit 1; }
    echo "$METRICS" | grep -q '"replayed_bytes_total":[1-9]' \
        || { echo "no journal bytes replayed: $METRICS"; exit 1; }
    echo "backend loss: orphan fed through failover, survivor feeds, creates rebalance"

    # The same story told in Prometheus text: failover and replay counters
    # plus the router's stage histograms, straight off the scrape endpoint.
    local PROM
    PROM=$(curl -fsS "$RBASE/metrics?format=prom")
    echo "$PROM" | grep -Eq '^aerodromed_router_failovers_total [1-9]' \
        || { echo "prom router failover counter missing"; exit 1; }
    echo "$PROM" | grep -q '^# TYPE aerodromed_router_stage_duration_seconds histogram' \
        || { echo "no prom router stage histogram"; exit 1; }
    echo "$PROM" | grep -Eq '^aerodromed_router_stage_duration_seconds_count\{stage="proxy"\} [1-9]' \
        || { echo "prom proxy-stage count never incremented"; exit 1; }
    echo "router prom exposition ok"

    # Drain the survivors: the router and the surviving backend (with its live
    # session) must both exit 0 with a clean-drain log on SIGTERM.
    kill -TERM "$PID_RT"
    await_exit "$PID_RT" "$LOG_RT" "router"
    kill -TERM "$PID_B1"
    await_exit "$PID_B1" "$LOG_B1" "backend1"
    echo "sharded drain ok"
}

# ---- chaos: fault-injected router + 3 backends, kill -9 everything ---------

CHAOS_SPEC="error=0.03,latency=1ms@0.05,seed=11"

# chaos_worker KEY-PREFIX TRACE WANT ITERS — replays the golden trace
# through the incremental session API over and over, each run under a
# fresh routing key, and requires every verdict to match the local one.
# Touches $TMPDIR_E2E/$1.ok on success, writes $TMPDIR_E2E/$1.fail on the
# first mismatch.
chaos_worker() {
    local prefix="$1" trace="$2" want="$3" iters="$4"
    local f="testdata/golden/$trace.std" got norm i
    for i in $(seq 1 "$iters"); do
        got=$("$CLI" -q -remote "$RBASE" -trace "$prefix-$i" \
            -incremental -chunk-bytes 512 -retries 8 -timeout 10s "$f" \
            2>"$TMPDIR_E2E/$prefix-$i.err" || true)
        norm=$(normalize "$got" "$got")
        if [ "$norm" != "$want" ]; then
            {
                echo "iteration $i verdict mismatch:"
                echo "  got:  $got"
                echo "  want: $want"
                cat "$TMPDIR_E2E/$prefix-$i.err"
            } >"$TMPDIR_E2E/$prefix.fail"
            return 0
        fi
    done
    : >"$TMPDIR_E2E/$prefix.ok"
}

leg_chaos() {
    local LOG_CB0="$TMPDIR_E2E/chaos-b0.log" LOG_CB1="$TMPDIR_E2E/chaos-b1.log"
    local LOG_CB2="$TMPDIR_E2E/chaos-b2.log" LOG_CRT="$TMPDIR_E2E/chaos-rt.log"
    boot_daemon "$LOG_CB0" -addr 127.0.0.1:0
    local PID_CB0=$BOOT_PID ADDR_CB0=$BOOT_ADDR
    boot_daemon "$LOG_CB1" -addr 127.0.0.1:0
    local PID_CB1=$BOOT_PID ADDR_CB1=$BOOT_ADDR
    boot_daemon "$LOG_CB2" -addr 127.0.0.1:0
    local PID_CB2=$BOOT_PID ADDR_CB2=$BOOT_ADDR
    local BACKENDS="http://$ADDR_CB0,http://$ADDR_CB1,http://$ADDR_CB2"
    boot_daemon "$LOG_CRT" -shard -backends "$BACKENDS" \
        -probe-interval 100ms -chaos "$CHAOS_SPEC" -addr 127.0.0.1:0
    local PID_CRT=$BOOT_PID ADDR_CRT=$BOOT_ADDR
    RBASE="http://$ADDR_CRT"
    echo "chaos router up at $RBASE (spec $CHAOS_SPEC) over 3 backends"

    curl -fsS "$RBASE/healthz" | grep -q '"backends_healthy":3' \
        || { echo "chaos healthz failed"; curl -sS "$RBASE/healthz"; exit 1; }

    # Local ground truth, computed once per trace.
    local lc ln WANT_CROSS WANT_NONE
    lc=$("$CLI" -q testdata/golden/sharded-cross.std 2>/dev/null || true)
    WANT_CROSS=$(normalize "$lc" "$lc")
    ln=$("$CLI" -q testdata/golden/sharded-none.std 2>/dev/null || true)
    WANT_NONE=$(normalize "$ln" "$ln")

    # -- Phase A: kill -9 a backend under load -------------------------------

    # Pin one keyed session to backend0 so the kill provably orphans it.
    local PIN_SID= PIN_KEY= HDRS SID BACKEND i
    for i in $(seq 1 64); do
        HDRS="$TMPDIR_E2E/chaos-pin-$i.hdrs"
        SID=$(curl -fsS --retry 8 --retry-all-errors -D "$HDRS" \
            -X POST "$RBASE/v1/sessions?trace=pin-$i" \
            | sed 's/.*"id":"\([^"]*\)".*/\1/')
        BACKEND=$(tr -d '\r' <"$HDRS" | sed -n 's/^[Xx]-[Aa]erodrome-[Bb]ackend: *//p' | head -1)
        if [ "$BACKEND" = "http://$ADDR_CB0" ]; then
            PIN_SID=$SID PIN_KEY="pin-$i"
            break
        fi
        curl -fsS --retry 8 --retry-all-errors -X DELETE \
            -H "X-Aerodrome-Trace: pin-$i" "$RBASE/v1/sessions/$SID" >/dev/null || true
    done
    [ -n "$PIN_SID" ] || { echo "no session landed on backend0"; exit 1; }
    printf 't1|begin|0\nt1|w(x)|1\n' | curl -fsS --retry 8 --retry-all-errors \
        --data-binary @- -H "X-Aerodrome-Trace: $PIN_KEY" -H "X-Aerodrome-Chunk-Seq: 0" \
        "$RBASE/v1/sessions/$PIN_SID/events" >/dev/null \
        || { echo "chaos pre-kill feed failed"; exit 1; }

    # Concurrent incremental replays, then yank backend0 mid-stream.
    local WPIDS=() p
    chaos_worker a-cross sharded-cross "$WANT_CROSS" 12 & WPIDS+=($!)
    chaos_worker a-none sharded-none "$WANT_NONE" 12 & WPIDS+=($!)
    sleep 0.4
    kill -9 "$PID_CB0"
    echo "killed backend0 mid-stream"

    # The pinned session survives the kill via journal replay; its report
    # still covers every event.
    printf 't1|end|0\n' | curl -fsS --retry 8 --retry-all-errors \
        --data-binary @- -H "X-Aerodrome-Trace: $PIN_KEY" -H "X-Aerodrome-Chunk-Seq: 1" \
        "$RBASE/v1/sessions/$PIN_SID/events" >/dev/null \
        || { echo "chaos failover feed failed"; cat "$LOG_CRT"; exit 1; }
    curl -fsS --retry 8 --retry-all-errors -X DELETE \
        -H "X-Aerodrome-Trace: $PIN_KEY" "$RBASE/v1/sessions/$PIN_SID" \
        | grep -q '"serializable":true.*"events":3\|"events":3.*"serializable":true' \
        || { echo "chaos failed-over session report wrong"; exit 1; }

    for p in "${WPIDS[@]}"; do wait "$p"; done
    for w in a-cross a-none; do
        [ -f "$TMPDIR_E2E/$w.fail" ] && { echo "worker $w failed:"; cat "$TMPDIR_E2E/$w.fail"; exit 1; }
        [ -f "$TMPDIR_E2E/$w.ok" ] || { echo "worker $w never finished"; exit 1; }
    done
    curl -fsS "$RBASE/metrics" | grep -q '"failovers_total":[1-9]' \
        || { echo "chaos phase A: no failover counted"; exit 1; }
    echo "phase A ok: backend kill -9 lost zero keyed sessions"

    # -- Phase B: kill -9 the router itself, restart on the same port --------

    # A keyed session opened on the doomed router: after the restart it must
    # re-attach by routing key (the seeded ring re-derives its backend, which
    # never died and still holds the engine state).
    local RE_SID
    RE_SID=$(curl -fsS --retry 8 --retry-all-errors \
        -X POST "$RBASE/v1/sessions?trace=reattach" | sed 's/.*"id":"\([^"]*\)".*/\1/')
    printf 't2|begin|0\nt2|w(z)|1\n' | curl -fsS --retry 8 --retry-all-errors \
        --data-binary @- -H "X-Aerodrome-Trace: reattach" -H "X-Aerodrome-Chunk-Seq: 0" \
        "$RBASE/v1/sessions/$RE_SID/events" >/dev/null \
        || { echo "pre-restart feed failed"; exit 1; }

    local WPIDS_B=()
    chaos_worker b-cross sharded-cross "$WANT_CROSS" 12 & WPIDS_B+=($!)
    chaos_worker b-none sharded-none "$WANT_NONE" 12 & WPIDS_B+=($!)
    sleep 0.3
    kill -9 "$PID_CRT"
    echo "killed router mid-stream"

    # Restart on the same address: the journal is gone, but the seeded ring
    # re-derives every key's placement, so live sessions re-attach. The port
    # can linger briefly after SIGKILL; retry the bind.
    local LOG_CRT2 RT2_UP= attempt
    for attempt in 1 2 3 4 5; do
        LOG_CRT2="$TMPDIR_E2E/chaos-rt2-$attempt.log"
        "$BIN" -shard -backends "$BACKENDS" -probe-interval 100ms -probe-on-start \
            -chaos "$CHAOS_SPEC" -addr "$ADDR_CRT" >"$LOG_CRT2" 2>&1 &
        local RT2_PID=$!
        PIDS+=("$RT2_PID")
        for _ in $(seq 1 50); do
            kill -0 "$RT2_PID" 2>/dev/null || break
            grep -q "listening on" "$LOG_CRT2" && { RT2_UP=1; break; }
            sleep 0.1
        done
        [ -n "$RT2_UP" ] && break
        sleep 0.2
    done
    [ -n "$RT2_UP" ] || { echo "router never restarted:"; cat "$LOG_CRT2"; exit 1; }
    PID_CRT=$RT2_PID LOG_CRT=$LOG_CRT2
    echo "router restarted on $ADDR_CRT"

    for p in "${WPIDS_B[@]}"; do wait "$p"; done
    for w in b-cross b-none; do
        [ -f "$TMPDIR_E2E/$w.fail" ] && { echo "worker $w failed:"; cat "$TMPDIR_E2E/$w.fail"; exit 1; }
        [ -f "$TMPDIR_E2E/$w.ok" ] || { echo "worker $w never finished"; exit 1; }
    done

    # The pre-restart session re-attaches: its remaining events land on the
    # backend that held it all along, and the final report covers everything.
    printf 't2|end|0\n' | curl -fsS --retry 8 --retry-all-errors --data-binary @- \
        -H "X-Aerodrome-Trace: reattach" -H "X-Aerodrome-Chunk-Seq: 1" \
        "$RBASE/v1/sessions/$RE_SID/events" >/dev/null \
        || { echo "post-restart feed failed"; cat "$LOG_CRT"; exit 1; }
    curl -fsS --retry 8 --retry-all-errors -X DELETE \
        -H "X-Aerodrome-Trace: reattach" "$RBASE/v1/sessions/$RE_SID" \
        | grep -q '"serializable":true.*"events":3\|"events":3.*"serializable":true' \
        || { echo "re-attached session report wrong"; exit 1; }
    curl -fsS "$RBASE/metrics" | grep -q '"sessions_reattached_total":[1-9]' \
        || { echo "no re-attach counted"; exit 1; }
    echo "phase B ok: router kill -9 + restart, keyed replays kept their verdicts"

    # Drain what's left: the restarted router and the two surviving backends.
    kill -TERM "$PID_CRT"
    await_exit "$PID_CRT" "$LOG_CRT" "chaos router"
    kill -TERM "$PID_CB1"
    await_exit "$PID_CB1" "$LOG_CB1" "chaos backend1"
    kill -TERM "$PID_CB2"
    await_exit "$PID_CB2" "$LOG_CB2" "chaos backend2"
    echo "chaos drain ok"
}

case "$MODE" in
    single)  leg_single ;;
    sharded) leg_sharded ;;
    chaos)   leg_chaos ;;
    all)     leg_single; leg_sharded; leg_chaos ;;
    *) echo "usage: $0 [single|sharded|chaos|all]"; exit 2 ;;
esac
echo "e2e: $MODE checks passed"
