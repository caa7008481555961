# bench-smoke: tiny-scale table1/fig1 runs gated against the metrics
# baseline (counters match exactly at the pinned scale and seed), then a
# one-shot study with --serve whose every endpoint family must answer with
# the right status and shape before SIGTERM exits 0.
SOAK=$(cd "$(dirname "$0")" && pwd)
. "$SOAK/lib.sh"

say "table1/fig1 metrics against bench/baselines/smoke.json"
for bench in table1_overview fig1_durations; do
  DYNAMIPS_SCALE=0.05 "$BUILD/bench/$bench" --metrics-out "$bench.metrics.json"
  python3 "$TOOLS/check_metrics.py" "$bench.metrics.json" \
    "$BASELINES/smoke.json" --verbose
done

say "looking-glass endpoint smoke"
dynamips_study lgsmoke --scale 0.05 --serve 0 >lgsmoke.log 2>&1 &
pid=$!
track $pid
serve_url lgsmoke.log
# Both studies have published once healthz carries non-null atlas and cdn
# fragments.
published() {
  case $(curl -sf "$LG/v1/healthz") in
    *'"atlas": {'*'"cdn": {'*) ;;
    *) return 1 ;;
  esac
}
wait_until 40 published || fail "studies never published"
expect_body /v1/durations/3320 '"v4_nds"'
expect_body /v1/assoc/3320 '"assoc_days"'
expect_body /v1/infer/79.192.0.0/11 '"inference"'
expect_body /v1/pfx2as/79.200.1.2 '"asn": 3320'
expect_body /v1/metricsz dynamips.metrics.v1
# Wrong inputs are client errors, never 500s.
expect_status 400 /v1/durations/notanasn
expect_status 404 /v1/durations/64511
expect_status 404 /v1/pfx2as/203.0.113.9
expect_status 404 /nope
# A completed one-shot run interrupted while serving exits 0.
stop_expect 0 $pid lgsmoke.log
