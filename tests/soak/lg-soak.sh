# lg-soak: stream the batch replay into `dynamips_study --follow --serve`
# and drive tools/lg_load.py at the looking-glass while re-finalizations
# publish new snapshot generations. Zero torn reads (byte-identical bodies
# per (path, generation)), spot-on status codes, throughput and p99 above
# bench/baselines/BENCH_lg.json, and a clean SIGTERM drain (exit 3, port
# released).
SOAK=$(cd "$(dirname "$0")" && pwd)
. "$SOAK/lib.sh"

export_echo
mkdir -p watch
# No sentinel: the serving stream stays live until SIGTERM, so the load
# overlaps genuine re-finalizations.
python3 "$FEED" echo.csv watch --kind echo --batches 10 --interval-ms 1000 \
  --no-sentinel >feed.log 2>&1 &
track $!

say "serve the stream under load"
dynamips_study stream --atlas-only --follow watch --threads 1 \
  --refinalize-every 2 --poll-ms 50 --serve 0 --no-csv \
  --metrics-out lg.metrics.json >stream.log 2>&1 &
pid=$!
track $pid
serve_url stream.log
# Closed-loop load over ~10 batches with a re-finalization every 2:
# lg_load exits 1 on a torn read or any non-200.
python3 "$TOOLS/lg_load.py" --port "$PORT" --duration 12 --workers 2 \
  --out BENCH_lg_candidate.json --scale 0.02 --seed 5 --window 3000 --threads 1
# Unless the load spanned two snapshot generations, the torn-read check
# proved nothing.
json_min BENCH_lg_candidate.json counts snapshots_seen 2
expect_body /v1/healthz '"atlas": {'
expect_body /v1/durations/3320 '"v4_nds"'
expect_status 400 /v1/durations/notanasn
expect_status 503 /v1/assoc/3320
# Interrupted mid-follow (no sentinel): the only acceptable exit is 3, and
# the server drained and accounted its work before exiting.
stop_expect 3 $pid stream.log
log_has stream.log 'served .* requests'
log_has lg.metrics.json '"lg.requests"'
port_released "$PORT"

say "throughput and p99 gate"
python3 "$TOOLS/check_bench.py" BENCH_lg_candidate.json \
  "$BASELINES/BENCH_lg.json" --verbose
