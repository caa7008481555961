# stream-soak: tools/stream_feed.py replays the export as 10 timed batch
# files (one damaged within the ingestion error budget) into a directory
# `dynamips_study --follow` watches. The stream is stopped mid-run with
# SIGTERM and resumed at another thread count; its CSVs and metrics must
# match a one-shot run over the same batch files (modulo the stream and
# checkpoint machinery's own counters and run-varying gauges).
SOAK=$(cd "$(dirname "$0")" && pwd)
. "$SOAK/lib.sh"

export_echo
mkdir -p watch
# No sentinel yet, so the SIGTERM lands on a stream still waiting for input.
python3 "$FEED" echo.csv watch --kind echo --batches 10 --interval-ms 100 \
  --no-sentinel --corrupt-batch 4 --corrupt-rate 0.001 --corrupt-seed 7 \
  >feed.log 2>&1 &
feeder=$!
track $feeder

say "stream, SIGTERM mid-run"
dynamips_study stream --atlas-only --follow watch --threads 1 \
  --refinalize-every 4 --poll-ms 50 --max-reject-fraction 0.05 \
  --metrics-out stream.metrics.json >stream.log 2>&1 &
pid=$!
track $pid
# Stop it once a batch is journaled: the feeder slices the whole export
# before it drops the first batch, so a fixed delay may land before any.
wait_until 30 test -f stream/study.ckpt.journal ||
  fail "no batch was journaled"
# Without a sentinel the stream cannot finish on its own: only exit 3
# (interrupted, checkpoint written) is acceptable.
stop_expect 3 $pid stream.log
checkpoint_intact stream

say "resume at another thread count, finish via the sentinel"
wait $feeder
cat feed.log
[ -f watch/batch-009.csv ] || fail "the feeder did not write every batch"
touch watch/stream.stop
resume_until_done dynamips_study stream --atlas-only --follow watch \
  --threads 4 --refinalize-every 4 --poll-ms 50 --max-reject-fraction 0.05 \
  --metrics-out stream.metrics.json --resume-from stream/study.ckpt
no_checkpoints stream

say "streamed results equal the one-shot run"
reference watch --max-reject-fraction 0.05
same_csvs ref stream
same_metrics stream.metrics.json ref.metrics.json \
  --ignore-counters='checkpoint.*,stream.*' --ignore-gauges="$STREAM_GAUGES" \
  --require-counters='stream.batches,stream.refinalize,checkpoint.resumes,ingest.reject.*'
