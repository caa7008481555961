# ingest-soak: damaged echo exports through dynamips_study. Within the
# error budget a corrupted export loads, counts its rejects per reason and
# quarantines each offending line, with the same CSVs, quarantine bytes
# and counters at --threads 1 and 4; over budget the same file fails. An
# export damaged by reordered and duplicated lines puts every duplicate it
# rejects in the quarantine, as many as `ingest.reject.duplicate` counts,
# and that count is not zero.
SOAK=$(cd "$(dirname "$0")" && pwd)
. "$SOAK/lib.sh"

export_echo

say "within budget: a damaged export loads and quarantines its rejects"
python3 "$TOOLS/corrupt_csv.py" echo.csv echo_bad.csv --seed 7 --rate 0.1
for t in 1 4; do
  dynamips_study out$t --atlas-only --atlas-in echo_bad.csv --threads $t \
    --max-reject-fraction 0.5 --quarantine-out quarantine$t.csv \
    --metrics-out ingest$t.metrics.json
done
test -s quarantine1.csv || fail "quarantine1.csv is empty"
python3 "$TOOLS/check_metrics.py" ingest1.metrics.json \
  --require-counters='ingest.reject.*,ingest.quarantined' --verbose
cmp quarantine1.csv quarantine4.csv || fail "quarantines differ by threads"
same_csvs out1 out4
same_metrics ingest4.metrics.json ingest1.metrics.json \
  --ignore-gauges="$SHARD_GAUGES"

say "over budget: the same file fails loudly"
expect_exit nonzero over.log dynamips_study out2 --atlas-only \
  --atlas-in echo_bad.csv --max-reject-fraction 0.0001

say "reordered and duplicated lines: every duplicate reject is quarantined"
python3 "$TOOLS/corrupt_csv.py" echo.csv echo_dup.csv \
  --modes reorder,duplicate --seed 11 --rate 0.2
dynamips_study dup --atlas-only --atlas-in echo_dup.csv \
  --max-reject-fraction 0.5 --quarantine-out dup_quarantine.csv \
  --metrics-out dup.metrics.json
python3 - <<'EOF2'
import csv, json, sys
with open("dup_quarantine.csv", newline="") as fh:
    rows = sum(1 for r in csv.reader(fh) if len(r) > 2 and r[2] == "duplicate")
with open("dup.metrics.json") as fh:
    counted = json.load(fh)["counters"].get("ingest.reject.duplicate", 0)
print(f"duplicate: {rows} quarantine rows, ingest.reject.duplicate = {counted}")
if rows != counted or counted == 0:
    sys.exit("expected equal, nonzero duplicate counts")
EOF2
