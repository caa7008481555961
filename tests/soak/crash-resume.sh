# crash-resume: kill the study driver mid-run with SIGTERM (and once via
# --deadline-seconds), resume from the checkpoint it left at another
# thread count, and require every CSV to be byte-identical to an
# uninterrupted run; metrics match it exactly modulo checkpoint.*.
SOAK=$(cd "$(dirname "$0")" && pwd)
. "$SOAK/lib.sh"

say "uninterrupted reference"
dynamips_study ref --scale 0.2 --window 6000 --threads 2 \
  --metrics-out ref.metrics.json

say "SIGTERM mid-run"
# --checkpoint-every 1 polls for shutdown and snapshots at every work item,
# so even the short CDN stage is interruptible. A fast machine may finish
# before the signal lands, so retry with a shorter fuse.
interrupted=0
for fuse in 0.4 0.2 0.1; do
  rm -rf sigterm sigterm.metrics.json
  dynamips_study sigterm --scale 0.2 --window 6000 --threads 2 \
    --metrics-out sigterm.metrics.json --checkpoint-every 1 &
  pid=$!
  track $pid
  sleep "$fuse"
  kill -TERM "$pid" 2>/dev/null || :
  rc=0
  wait "$pid" || rc=$?
  echo "fuse=${fuse}s -> exit $rc"
  if [ "$rc" -eq 3 ]; then
    interrupted=1
    break
  fi
  # 0 means the study outran the signal; anything else is a bug.
  [ "$rc" -eq 0 ] || fail "interrupted run exited $rc"
done
[ "$interrupted" -eq 1 ] || fail "study never interrupted; cannot exercise resume"
[ -f sigterm/study.ckpt ] || fail "no checkpoint after SIGTERM"

say "resume at another thread count"
resume_until_done dynamips_study sigterm --scale 0.2 --window 6000 \
  --threads 4 --metrics-out sigterm.metrics.json \
  --resume-from sigterm/study.ckpt
no_checkpoints sigterm
same_csvs ref sigterm
same_metrics sigterm.metrics.json ref.metrics.json \
  --ignore-counters='checkpoint.*' --ignore-gauges="$SHARD_GAUGES" \
  --require-counters='checkpoint.resumes,checkpoint.rounds'

say "deadline watchdog variant"
# The same contract when the watchdog trips the token from inside.
rc=0
dynamips_study deadline --scale 0.2 --window 6000 --threads 2 \
  --checkpoint-every 1 --deadline-seconds 0.3 || rc=$?
echo "deadline run -> exit $rc"
if [ "$rc" -eq 3 ]; then
  [ -f deadline/study.ckpt ] || fail "no checkpoint after the deadline"
  dynamips_study deadline --scale 0.2 --window 6000 --threads 2 \
    --resume-from deadline/study.ckpt
else
  [ "$rc" -eq 0 ] || fail "deadline run exited $rc"  # outran the watchdog
fi
same_csvs ref deadline
