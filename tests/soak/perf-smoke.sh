# perf-smoke: Release study runs at the pinned default scale and seed. The
# --threads 1 and 4 runs must write byte-identical CSVs, and the
# single-threaded, columnar-ingest and CSV-ingest throughput documents are
# gated against their baselines (a >15% throughput drop fails). The CSV
# export spans a 3000-hour window (~140 MB) rather than the default
# 30000 hours (~1.3 GB).
SOAK=$(cd "$(dirname "$0")" && pwd)
. "$SOAK/lib.sh"

say "throughput runs at threads 1 and 4"
dynamips_study t1 --threads 1 --bench-out BENCH_t1.json
dynamips_study t4 --threads 4 --bench-out BENCH_t4.json
same_csvs t1 t4

say "columnar association ingest"
dataset_roundtrip --assoc-out assoc.col --scale 0.3 --seed 1
dynamips_study colperf --cdn-only --cdn-in assoc.col --threads 1 \
  --bench-out BENCH_columnar.json

say "CSV echo ingest"
dataset_roundtrip --echo-out echo.csv --scale 0.3 --window 3000 --seed 1
dynamips_study csvperf --atlas-only --atlas-in echo.csv --window 3000 \
  --threads 1 --bench-out BENCH_csv.json

say "throughput gates"
python3 "$TOOLS/check_bench.py" BENCH_t1.json \
  "$BASELINES/BENCH_smoke.json" --verbose
python3 "$TOOLS/check_bench.py" BENCH_columnar.json \
  "$BASELINES/BENCH_columnar.json" --verbose
python3 "$TOOLS/check_bench.py" BENCH_csv.json \
  "$BASELINES/BENCH_csv.json" --verbose
