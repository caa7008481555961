# chaos-soak: failpoint-armed --follow runs (core/failpoint.h) over sliced
# batches. An armed run either converges byte-identical to the fault-free
# reference, or exits 3 resumable with an intact durable checkpoint; never
# a torn file, never a hung drain.
SOAK=$(cd "$(dirname "$0")" && pwd)
. "$SOAK/lib.sh"

export_echo
# All batches and the sentinel up front: this job injects its own trouble.
python3 "$FEED" echo.csv watch --kind echo --batches 6 --interval-ms 0
reference watch

say "leg 1: transient faults retry and converge byte-identical"
# One scan, one checkpoint-write and one line-read failure, all inside the
# 3-attempt budget.
expect_exit 0 chaos.log dynamips_study chaos --atlas-only --follow watch \
  --threads 1 --refinalize-every 4 --poll-ms 50 \
  --io-retries 3 --io-retry-base-ms 5 --metrics-out chaos.metrics.json \
  --failpoints 'stream.scan=err@1; checkpoint.write=err(EIO)@2; readers.line=err@200'
# The injections happened (per-name report on stderr).
log_has chaos.log '^failpoints: '
no_checkpoints chaos
same_csvs ref chaos
# Metrics equal too, modulo the fault accounting itself.
same_metrics chaos.metrics.json ref.metrics.json --ignore-fault-counters \
  --ignore-counters='checkpoint.*,stream.*' --ignore-gauges="$STREAM_GAUGES" \
  --require-counters='io.retries'

say "leg 2: exhausted retries give up resumably, checkpoint intact"
# Every checkpoint write from the third on fails: the 2-attempt budget runs
# out on batch 3, and the run exits 3 with batch 2's high-water mark
# durable on disk.
expect_exit 3 chaos2.log dynamips_study chaos2 --atlas-only --follow watch \
  --threads 1 --refinalize-every 4 --poll-ms 50 \
  --io-retries 2 --io-retry-base-ms 5 \
  --failpoints 'checkpoint.write=err(ENOSPC)@3..'
checkpoint_intact chaos2
# A disarmed resume completes and matches the reference bytes.
dynamips_study chaos2 --atlas-only --follow watch --threads 4 \
  --refinalize-every 4 --poll-ms 50 --resume-from chaos2/study.ckpt
no_checkpoints chaos2
same_csvs ref chaos2

say "leg 3: slow clients dropped at the send deadline, clean drain"
# Serve the complete batch directory (sentinel removed so the stream keeps
# serving) with the first two sends stalled 400ms against a 200ms
# deadline: both connections are dropped and their workers reclaimed while
# real load and slow-loris readers keep flowing.
rm -f watch/stream.stop
dynamips_study slow --atlas-only --follow watch --threads 1 \
  --refinalize-every 2 --poll-ms 50 --serve 0 --no-csv \
  --send-timeout-ms 200 --metrics-out slow.metrics.json \
  --failpoints 'lg.send=delay(400ms)@1..2' >slow.log 2>&1 &
pid=$!
track $pid
serve_url slow.log
python3 "$TOOLS/lg_load.py" --port "$PORT" --duration 8 --workers 2 \
  --slow-client 2 --slow-read-interval 0.3 \
  --scale 0.02 --seed 5 --window 3000 --threads 1
# Overload is visible live, while it happens.
expect_body /v1/metricsz '"lg.slow_client_drops"'
stop_expect 3 $pid slow.log
log_has slow.log 'served .* requests'
json_min slow.metrics.json counters lg.slow_client_drops 1
port_released "$PORT"
