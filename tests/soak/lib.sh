# Shared helpers for the soak legs. A leg is a POSIX sh script
# tests/soak/<job>.sh that sets SOAK to its own directory and sources this
# file; run.sh runs each leg in a fresh soak-<job>/ directory, so every
# relative path below is leg-local. Any failed check exits the leg nonzero.

set -eu

ROOT=$(cd "$SOAK/../.." && pwd)
BUILD=$ROOT/build
TOOLS=$ROOT/tools
BASELINES=$ROOT/bench/baselines

# Gauges that legitimately differ between equivalent runs: shard shape
# when the thread counts differ, and peak RSS. Streams add their ingest
# lag and backlog, which follow the batch timing.
SHARD_GAUGES='atlas.shard*,cdn.shard*,process.peak_rss_bytes'
STREAM_GAUGES="$SHARD_GAUGES,stream.lag_seconds,stream.backlog_batches"

# The binaries under test, found on PATH so that `$!` of a background run
# is the study's own pid.
PATH=$BUILD/tools:$BUILD/examples:$PATH

say() { echo "== $*"; }
fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# Background processes a leg starts; whatever still runs when the leg
# exits (a failed check included) is terminated.
BG=""
track() { BG="$BG $1"; }
trap 'for p in $BG; do kill "$p" 2>/dev/null || :; done' EXIT

# wait_until SECONDS CMD...: poll CMD every 0.1 s until it succeeds.
wait_until() {
  ticks=$(($1 * 10))
  shift
  until "$@"; do
    ticks=$((ticks - 1))
    [ "$ticks" -gt 0 ] || return 1
    sleep 0.1
  done
}

# expect_exit WANT LOG CMD...: run CMD with its output in LOG, show the
# log, and require exit status WANT ("nonzero" accepts any failure).
expect_exit() {
  want=$1 log=$2
  shift 2
  rc=0
  "$@" >"$log" 2>&1 || rc=$?
  cat "$log"
  echo "exit $rc ($log)"
  case $want in
    nonzero) [ "$rc" -ne 0 ] ;;
    *) [ "$rc" -eq "$want" ] ;;
  esac || fail "$log: exit $rc, expected $want"
}

# stop_expect WANT PID LOG: SIGTERM a background run, show its log and
# require exit status WANT.
stop_expect() {
  kill -TERM "$2" 2>/dev/null || :
  rc=0
  wait "$2" || rc=$?
  cat "$3"
  echo "exit $rc ($3)"
  [ "$rc" -eq "$1" ] || fail "$3: exit $rc, expected $1"
}

# log_has LOG PATTERN: LOG contains a line matching PATTERN.
log_has() { grep -q -- "$2" "$1" || fail "$1 does not contain $2"; }

# resume_until_done CMD...: a resume may itself be interrupted (exit 3),
# so repeat it up to five times; the last attempt must exit 0.
resume_until_done() {
  for attempt in 1 2 3 4 5; do
    rc=0
    "$@" || rc=$?
    echo "resume attempt $attempt -> exit $rc"
    [ "$rc" -eq 3 ] || break
  done
  [ "$rc" -eq 0 ] || fail "resume exited $rc"
}

# same_csvs REF OUT [GLOB]: every REF/*.csv must be byte-identical to OUT's
# file of the same name. With GLOB, every OUT/GLOB file must match REF's
# instead: a partial study checks the CSVs it writes.
same_csvs() {
  ref=$1 out=$2 n=0
  if [ $# -ge 3 ]; then set -- "$out"/$3; else set -- "$ref"/*.csv; fi
  for f; do
    cmp "$ref/${f##*/}" "$out/${f##*/}" || fail "$out/${f##*/} differs"
    n=$((n + 1))
  done
  echo "all $n CSVs identical: $out vs $ref"
}

# same_metrics CAND REF [ARGS...]: the two-way metrics diff. Counters and
# gauges must match exactly except where ARGS exempt them.
same_metrics() {
  cand=$1 ref=$2
  shift 2
  python3 "$TOOLS/check_metrics.py" "$cand" --compare-to="$ref" --verbose "$@"
}

# json_min FILE SECTION KEY MIN: FILE's SECTION[KEY] (0 if absent) >= MIN.
json_min() {
  python3 - "$@" <<'EOF'
import json, sys
path, section, key, low = sys.argv[1:]
value = json.load(open(path))[section].get(key, 0)
print(f"{path}: {section}.{key} = {value}")
if value < float(low):
    sys.exit(f"expected {section}.{key} >= {low}")
EOF
}

# no_checkpoints DIR: a completed run retires its whole checkpoint chain.
no_checkpoints() {
  for f in "$1"/study.ckpt*; do
    [ ! -e "$f" ] || fail "$f left behind by a completed run"
  done
}

# checkpoint_intact DIR: an interrupted stream keeps its manifest and
# journal, at most one .prev generation, and nothing torn (no .tmp).
checkpoint_intact() {
  [ -f "$1/study.ckpt" ] || fail "$1/study.ckpt missing"
  [ -f "$1/study.ckpt.journal" ] || fail "$1/study.ckpt.journal missing"
  for f in "$1"/study.ckpt*; do
    case ${f##*/} in
      study.ckpt | study.ckpt.prev | study.ckpt.journal) ;;
      *) fail "unexpected checkpoint file $f" ;;
    esac
  done
}

# The small echo export the stream legs replay, and the feeder that slices
# it into batch files.
export_echo() {
  dataset_roundtrip --echo-out echo.csv --scale 0.02 --window 3000 --seed 5
}
FEED=$TOOLS/stream_feed.py

# reference WATCH [FLAGS...]: the one-shot run over WATCH's batch files
# that every stream over them must reproduce, into ref/.
reference() {
  batches=$(ls "$1"/batch-*.csv | sort | paste -sd, -)
  shift
  dynamips_study ref --atlas-only --atlas-in "$batches" --threads 1 \
    --metrics-out ref.metrics.json "$@"
}

# serve_url LOG: wait for a `--serve 0` run to print its port; sets PORT
# and LG (the service's base URL).
serve_url() {
  wait_until 30 grep -q 'looking-glass serving on' "$1" ||
    fail "$1: the looking-glass never came up"
  PORT=$(sed -n 's|.*serving on http://127.0.0.1:\([0-9]*\)/.*|\1|p' "$1")
  LG=http://127.0.0.1:$PORT
}

# expect_status CODE PATH / expect_body PATH PATTERN: probes against $LG.
expect_status() {
  code=$(curl -s -o /dev/null -w '%{http_code}' "$LG$2")
  [ "$code" = "$1" ] || fail "GET $2 -> $code, expected $1"
}
expect_body() {
  curl -sf "$LG$1" | grep -q "$2" || fail "GET $1 does not contain $2"
}

# port_released PORT: a drained server leaked no socket, so its port binds
# again at once.
port_released() {
  python3 - "$1" <<'EOF'
import socket, sys
s = socket.socket()
s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
s.bind(("127.0.0.1", int(sys.argv[1])))
s.listen(1)
s.close()
print(f"port {sys.argv[1]} released")
EOF
}
