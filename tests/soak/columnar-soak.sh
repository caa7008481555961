# columnar-soak: the out-of-core columnar path. The same study must write
# byte-identical CSVs whether it ingests CSV or DYNCOL1 batches, at any
# thread count, with the external-merge spill engaged, and when split
# across shard processes and merged; a single flipped bit in a columnar
# batch must be caught by the CRCs, never absorbed.
SOAK=$(cd "$(dirname "$0")" && pwd)
. "$SOAK/lib.sh"

say "export the dataset as CSV and DYNCOL1"
dataset_roundtrip --echo-out echo.csv --assoc-out assoc.csv --scale 0.3 --seed 1
dataset_roundtrip --echo-out echo.col --assoc-out assoc.col --scale 0.3 --seed 1
ls -la echo.* assoc.*
dynamips_study ref --atlas-in echo.csv --cdn-in assoc.csv --threads 1

say "columnar runs match CSV at threads 1 and 4"
dynamips_study col1 --atlas-in echo.col --cdn-in assoc.col --threads 1
dynamips_study col4 --atlas-in echo.col --cdn-in assoc.col --threads 4
same_csvs ref col1
same_csvs ref col4

say "a spilled run matches and actually spills"
dynamips_study spill --cdn-only --cdn-in assoc.col --threads 2 --spill-mb 8 \
  --spill-dir spilltmp --metrics-out spill/metrics.json
same_csvs ref spill 'fig*.csv'
json_min spill/metrics.json counters cdn.spill_runs 1

say "two shard processes merge byte-identically"
dynamips_study sh0 --cdn-only --cdn-in assoc.col --threads 2 --shard 0/2
dynamips_study sh1 --cdn-only --cdn-in assoc.col --threads 2 --shard 1/2
dynamips_study merged --cdn-only --cdn-in assoc.col --threads 2 \
  --merge-shards sh0/study.shard-0-of-2.ckpt,sh1/study.shard-1-of-2.ckpt
same_csvs ref merged 'fig*.csv'

say "a flipped bit is caught, not absorbed"
python3 - <<'EOF'
with open("assoc.col", "r+b") as fh:
    fh.seek(50_000_000)
    b = fh.read(1)
    fh.seek(50_000_000)
    fh.write(bytes([b[0] ^ 0x40]))
EOF
expect_exit 1 corrupt.log \
  dynamips_study corrupt --cdn-only --cdn-in assoc.col --threads 1
log_has corrupt.log DATA_LOSS
log_has corrupt.log corrupt
