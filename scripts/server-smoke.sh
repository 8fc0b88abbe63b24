#!/bin/sh
# server-smoke.sh builds ldivd, starts it with a durable store, runs one job
# through the full submit -> poll -> result round trip with curl, checks
# /healthz and /metrics, kills the daemon with SIGKILL and asserts the
# restarted daemon recovers every acknowledged job from the store (a finished
# job's status JSON byte-identical), then shuts it down gracefully. CI runs this on every push so neither the served path
# nor crash recovery can rot. Requires: go, curl.
set -eu

PORT="${LDIVD_SMOKE_PORT:-8356}"
BASE="http://127.0.0.1:$PORT"
TMP="$(mktemp -d)"
BIN="$TMP/ldivd"

cleanup() {
    if [ -n "${LDIVD_PID:-}" ] && kill -0 "$LDIVD_PID" 2>/dev/null; then
        kill -TERM "$LDIVD_PID" 2>/dev/null || true
        wait "$LDIVD_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "smoke: building ldivd"
go build -o "$BIN" ./cmd/ldivd

STORE_DIR="$TMP/store"

start_ldivd() {
    "$BIN" -addr "127.0.0.1:$PORT" -store-dir "$STORE_DIR" >>"$TMP/ldivd.log" 2>&1 &
    LDIVD_PID=$!
    i=0
    until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "smoke: server never became healthy" >&2
            cat "$TMP/ldivd.log" >&2
            exit 1
        fi
        sleep 0.2
    done
}

echo "smoke: starting ldivd (store: $STORE_DIR)"
start_ldivd

cat >"$TMP/smoke.csv" <<'EOF'
Age,Gender,Disease
30,M,flu
30,F,cold
40,M,flu
40,F,cold
50,M,angina
50,F,flu
60,M,cold
60,F,angina
EOF

echo "smoke: submitting job"
SUBMIT="$(curl -fsS -X POST --data-binary @"$TMP/smoke.csv" \
    "$BASE/v1/jobs?algo=tp%2B&l=2&qi=Age,Gender&sa=Disease")"
JOB_ID="$(printf '%s' "$SUBMIT" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
if [ -z "$JOB_ID" ]; then
    echo "smoke: no job id in response: $SUBMIT" >&2
    exit 1
fi

echo "smoke: polling $JOB_ID"
i=0
while :; do
    STATUS_JSON="$(curl -fsS "$BASE/v1/jobs/$JOB_ID")"
    case "$STATUS_JSON" in
    *'"status":"done"'*) break ;;
    *'"status":"failed"'*)
        echo "smoke: job failed: $STATUS_JSON" >&2
        exit 1
        ;;
    esac
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "smoke: job never finished: $STATUS_JSON" >&2
        exit 1
    fi
    sleep 0.2
done

echo "smoke: fetching result"
RESULT="$(curl -fsS "$BASE/v1/jobs/$JOB_ID/result")"
case "$RESULT" in
Age,Gender,Disease*) : ;;
*)
    echo "smoke: unexpected result header: $RESULT" >&2
    exit 1
    ;;
esac
ROWS="$(printf '%s\n' "$RESULT" | wc -l)"
if [ "$ROWS" -ne 9 ]; then
    echo "smoke: result has $ROWS lines, want 9" >&2
    exit 1
fi

echo "smoke: verifying the release the server handed out"
printf '%s' "$RESULT" >"$TMP/release.csv"
VERDICT="$(curl -fsS -X POST \
    -F "original=@$TMP/smoke.csv" -F "release=@$TMP/release.csv" \
    "$BASE/v1/verify?l=2&qi=Age,Gender&sa=Disease")"
case "$VERDICT" in
*'"ok":true'*) : ;;
*)
    echo "smoke: the served release failed its own audit: $VERDICT" >&2
    exit 1
    ;;
esac

echo "smoke: verifying a tampered release is rejected"
sed 's/flu/angina/' "$TMP/release.csv" >"$TMP/tampered.csv"
VERDICT="$(curl -fsS -X POST \
    -F "original=@$TMP/smoke.csv" -F "release=@$TMP/tampered.csv" \
    "$BASE/v1/verify?l=2&qi=Age,Gender&sa=Disease")"
case "$VERDICT" in
*'"ok":false'*) : ;;
*)
    echo "smoke: a tampered release passed verification: $VERDICT" >&2
    exit 1
    ;;
esac

echo "smoke: checking /metrics"
METRICS="$(curl -fsS "$BASE/metrics")"
printf '%s\n' "$METRICS" | grep -q '^ldivd_jobs_done_total 1$' || {
    echo "smoke: metrics do not report the finished job" >&2
    exit 1
}
printf '%s\n' "$METRICS" | grep -q '^ldivd_verifies_total 2$' || {
    echo "smoke: metrics do not report the verifications" >&2
    exit 1
}

echo "smoke: crash recovery — submit, SIGKILL, restart, poll"
cat >"$TMP/crash.csv" <<'EOF'
Age,Gender,Disease
31,M,flu
31,F,cold
41,M,flu
41,F,cold
51,M,angina
51,F,flu
61,M,cold
61,F,angina
EOF
SUBMIT="$(curl -fsS -X POST --data-binary @"$TMP/crash.csv" \
    "$BASE/v1/jobs?algo=tp%2B&l=2&qi=Age,Gender&sa=Disease")"
CRASH_ID="$(printf '%s' "$SUBMIT" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
if [ -z "$CRASH_ID" ]; then
    echo "smoke: no job id in crash-leg response: $SUBMIT" >&2
    exit 1
fi
# The finished job's status JSON must read the same after the crash.
DONE_STATUS="$(curl -fsS "$BASE/v1/jobs/$JOB_ID")"
kill -9 "$LDIVD_PID"
wait "$LDIVD_PID" 2>/dev/null || true
unset LDIVD_PID

start_ldivd
i=0
while :; do
    STATUS_JSON="$(curl -fsS "$BASE/v1/jobs/$CRASH_ID")" || {
        echo "smoke: acknowledged job $CRASH_ID vanished after the crash" >&2
        exit 1
    }
    case "$STATUS_JSON" in
    *'"status":"done"'*) break ;;
    *'"status":"failed"'* | *'"status":"quarantined"'*)
        echo "smoke: job $CRASH_ID did not recover: $STATUS_JSON" >&2
        exit 1
        ;;
    esac
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "smoke: job $CRASH_ID never finished after restart: $STATUS_JSON" >&2
        exit 1
    fi
    sleep 0.2
done
CRASH_RESULT="$(curl -fsS "$BASE/v1/jobs/$CRASH_ID/result")"
case "$CRASH_RESULT" in
Age,Gender,Disease*) : ;;
*)
    echo "smoke: unexpected recovered result header: $CRASH_RESULT" >&2
    exit 1
    ;;
esac
# The pre-crash job must also survive, its status and result byte-identical.
DONE_STATUS2="$(curl -fsS "$BASE/v1/jobs/$JOB_ID")"
if [ "$DONE_STATUS2" != "$DONE_STATUS" ]; then
    echo "smoke: the pre-crash job's status changed across the restart:" >&2
    echo "  before: $DONE_STATUS" >&2
    echo "  after:  $DONE_STATUS2" >&2
    exit 1
fi
RESULT2="$(curl -fsS "$BASE/v1/jobs/$JOB_ID/result")"
if [ "$RESULT2" != "$RESULT" ]; then
    echo "smoke: the pre-crash job's result changed across the restart" >&2
    exit 1
fi
METRICS="$(curl -fsS "$BASE/metrics")"
printf '%s\n' "$METRICS" | grep -q '^ldivd_jobs_recovered_total [1-9]' || {
    echo "smoke: metrics do not report recovered jobs after the crash" >&2
    printf '%s\n' "$METRICS" | grep '^ldivd_jobs' >&2 || true
    exit 1
}

echo "smoke: graceful shutdown"
kill -TERM "$LDIVD_PID"
wait "$LDIVD_PID" || {
    echo "smoke: ldivd exited non-zero" >&2
    cat "$TMP/ldivd.log" >&2
    exit 1
}
unset LDIVD_PID

echo "smoke: OK"
