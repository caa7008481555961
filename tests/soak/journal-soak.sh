# journal-soak: the stream checkpoint's DYNCOL1 journal under damage. A
# `--follow` stream killed with SIGKILL mid-run, whose journal then gains a
# torn ~100 KB tail, resumes at the other thread count to CSVs
# byte-identical to the one-shot reference; one flipped bit inside a
# committed segment makes the resume refuse with DATA_LOSS naming it.
SOAK=$(cd "$(dirname "$0")" && pwd)
. "$SOAK/lib.sh"

export_echo
mkdir -p watch
python3 "$FEED" echo.csv watch --kind echo --batches 8 --interval-ms 300 \
  --no-sentinel >feed.log 2>&1 &
feeder=$!
track $feeder

say "SIGKILL the stream once it has committed batches"
dynamips_study stream --atlas-only --follow watch --threads 1 \
  --refinalize-every 2 --poll-ms 50 >stream.log 2>&1 &
pid=$!
track $pid
wait_until 30 test -f stream/study.ckpt || fail "no checkpoint was committed"
sleep 0.5
kill -9 $pid
rc=0
wait $pid || rc=$?
cat stream.log
[ "$rc" -eq 137 ] || fail "the stream exited $rc before the SIGKILL"
cp -R stream flip

say "a torn journal tail is cut on resume"
python3 -c 'import random, sys; random.seed(7)
sys.stdout.buffer.write(random.randbytes(100_000))' >>stream/study.ckpt.journal
wait $feeder
touch watch/stream.stop
resume_until_done dynamips_study stream --atlas-only --follow watch \
  --threads 4 --refinalize-every 2 --poll-ms 50 \
  --resume-from stream/study.ckpt
no_checkpoints stream
reference watch
same_csvs ref stream

say "a flipped bit in a committed segment is DATA_LOSS"
python3 - <<'EOF2'
with open("flip/study.ckpt.journal", "r+b") as fh:
    fh.seek(1000)
    b = fh.read(1)
    fh.seek(1000)
    fh.write(bytes([b[0] ^ 0x10]))
EOF2
expect_exit 1 flip.log dynamips_study flip --atlas-only --follow watch \
  --threads 4 --poll-ms 50 --resume-from flip/study.ckpt
log_has flip.log DATA_LOSS
log_has flip.log 'journal segment 0 (batch-000.csv)'
