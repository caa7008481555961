# supervise-soak: the supervisor (core/supervise.h) and the resource
# governor (core/resource.h) against a live binary. A supervised run
# converges to CSVs byte-identical to an uninterrupted reference (across
# SIGKILLs, from checkpoints, under memory pressure) or gives up loudly
# with a bounded restart count and an intact durable checkpoint.
SOAK=$(cd "$(dirname "$0")" && pwd)
. "$SOAK/lib.sh"

export_echo
# The slicing is deterministic, so every leg's watch directory holds
# byte-identical batches and one reference serves all.
python3 "$FEED" echo.csv watchref --kind echo --batches 6 --interval-ms 0
reference watchref

say "leg 1: three SIGKILLs mid-stream resume byte-identical"
# A feeder drips batches while the supervisor runs the child, which is
# SIGKILLed three times mid-ingest; every death restarts from the batch
# high-water-mark checkpoint.
python3 "$FEED" echo.csv swatch --kind echo --batches 6 --interval-ms 1000 &
feeder=$!
track $feeder
dynamips_study sup --atlas-only --follow swatch --threads 2 \
  --refinalize-every 2 --poll-ms 50 --supervise --restart-backoff-ms 100 \
  --restart-max 10 --restart-window-seconds 300 \
  --metrics-out sup.metrics.json >sup.log 2>&1 &
suppid=$!
track $suppid
live_child() {
  child=$(sed -n 's/.*child pid \([0-9]*\).*/\1/p' sup.log | tail -n 1)
  [ -n "$child" ] && kill -0 "$child" 2>/dev/null
}
for round in 1 2 3; do
  wait_until 10 live_child || fail "no live child to kill (round $round)"
  kill -9 "$child" || :
  echo "SIGKILLed child $child (round $round)"
  sleep 1.2
done
rc=0
wait $suppid || rc=$?
wait $feeder || :
cat sup.log
[ "$rc" -eq 0 ] || fail "supervised run exited $rc"
launches=$(grep -c 'launched child' sup.log)
echo "child launched $launches times"
[ "$launches" -ge 4 ] || fail "3 kills need at least 3 restarts"
log_has sup.log 'resume from'
no_checkpoints sup
same_csvs ref sup
# resource.*/supervise.* are exempt by default, restart bookkeeping
# explicitly, nothing else.
same_metrics sup.metrics.json ref.metrics.json --ignore-fault-counters \
  --ignore-counters='checkpoint.*,stream.*' --ignore-gauges="$STREAM_GAUGES" \
  --require-counters='supervise.launches'

say "leg 2: persistent write faults bound the restarts, then give up"
# Seed a durable checkpoint: two batches, then the deadline interrupts
# resumably.
python3 "$FEED" echo.csv watch2all --kind echo --batches 6 --interval-ms 0 \
  --no-sentinel
mkdir watch2
mv watch2all/batch-000.csv watch2all/batch-001.csv watch2/
expect_exit 3 seed.log dynamips_study sup2 --atlas-only --follow watch2 \
  --threads 1 --poll-ms 50 --deadline-seconds 3
[ -f sup2/study.ckpt ] || fail "the seed run left no checkpoint"
# Every checkpoint write now fails (the disk went read-only for good): the
# supervisor restarts from the intact checkpoint a bounded number of
# times, then gives up nonzero with a diagnosis naming it.
mv watch2all/batch-*.csv watch2/
touch watch2/stream.stop
(
  export DYNAMIPS_FAILPOINTS='checkpoint.write=err(ENOSPC)@1..'
  expect_exit nonzero sup2.log dynamips_study sup2 --atlas-only \
    --follow watch2 --threads 1 --poll-ms 50 --io-retries 2 \
    --io-retry-base-ms 5 --supervise --restart-backoff-ms 100 \
    --restart-max 3 --restart-window-seconds 300
)
log_has sup2.log 'crash loop'
log_has sup2.log 'study.ckpt'
[ "$(grep -c 'launched child' sup2.log)" -eq 3 ] || fail "expected 3 launches"
# The checkpoint the diagnosis names survived every failed attempt, and a
# fault-free resume finishes byte-identical.
[ -f sup2/study.ckpt ] || fail "the crash loop lost the checkpoint"
dynamips_study sup2 --atlas-only --follow watch2 --threads 4 --poll-ms 50 \
  --resume-from sup2/study.ckpt
no_checkpoints sup2
same_csvs ref sup2

say "leg 3: memory pressure degrades publications, never results"
# A 1 MiB RSS budget keeps the governor in memory pressure throughout:
# intermediate re-finalizations are deferred (resource.*), the final
# outputs stay byte-identical.
expect_exit 0 gov.log dynamips_study gov --atlas-only --follow watchref \
  --threads 2 --refinalize-every 2 --poll-ms 50 --max-rss-mb 1 \
  --metrics-out gov.metrics.json
same_csvs ref gov
json_min gov.metrics.json counters resource.refinalize_deferred 1
# The default resource.*/supervise.* exemption alone makes a governed run
# check green against the ungoverned reference.
same_metrics gov.metrics.json ref.metrics.json \
  --ignore-counters='checkpoint.*,stream.*' --ignore-gauges="$STREAM_GAUGES"
