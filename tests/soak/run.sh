#!/bin/sh
# Run the end-to-end soak jobs against the binaries in build/:
#
#   tests/soak/run.sh [JOB...]    run the named jobs (default: all)
#   tests/soak/run.sh --check     syntax-check every leg and require JOBS,
#                                 the leg files and CI's soak matrix to
#                                 name the same set
#
# Each job's leg, tests/soak/<job>.sh, runs in a fresh soak-<job>/ under
# the current directory, where its logs and documents stay for reading.
# Build first: cmake -B build -S . -DCMAKE_BUILD_TYPE=Release &&
# cmake --build build -j
set -u
SOAK=$(cd "$(dirname "$0")" && pwd)
ROOT=$(cd "$SOAK/../.." && pwd)

JOBS="bench-smoke perf-smoke columnar-soak crash-resume stream-soak lg-soak
chaos-soak supervise-soak journal-soak ingest-soak"

sorted() { printf '%s\n' $* | sort; }

if [ "${1:-}" = --check ]; then
  status=0
  for f in "$SOAK"/*.sh; do
    sh -n "$f" || status=1
  done
  legs=$(cd "$SOAK" && ls *.sh | grep -v -x -e lib.sh -e run.sh | sed 's/\.sh$//')
  matrix=$(sed -n 's/^ *job: *\[\(.*\)\]/\1/p' "$ROOT/.github/workflows/ci.yml" | tr , ' ')
  for set in "legs:$legs" "ci.yml soak matrix:$matrix"; do
    if [ "$(sorted ${set#*:})" != "$(sorted $JOBS)" ]; then
      echo "JOBS ($(echo $JOBS)) and the ${set%%:*} ($(echo ${set#*:})) differ"
      status=1
    fi
  done
  [ $status -eq 0 ] && echo "ok: $(echo $JOBS | wc -w) soak jobs"
  exit $status
fi

for bin in tools/dynamips_study examples/dataset_roundtrip \
  bench/table1_overview bench/fig1_durations; do
  [ -x "$ROOT/build/$bin" ] || {
    echo "missing $ROOT/build/$bin: build the project first" >&2
    exit 2
  }
done

[ $# -gt 0 ] || set -- $JOBS
failed="" summary=""
for job; do
  case " $(echo $JOBS) " in
    *" $job "*) ;;
    *) echo "unknown soak job: $job (jobs: $(echo $JOBS))" >&2 && exit 2 ;;
  esac
  rm -rf "soak-$job"
  mkdir "soak-$job"
  echo "=== $job"
  start=$(date +%s)
  if (cd "soak-$job" && sh "$SOAK/$job.sh"); then
    result=ok
  else
    result=FAILED
    failed="$failed $job"
  fi
  summary="$summary$(printf '%-16s %-7s %4ss' "$job" $result $(($(date +%s) - start)))
"
done
printf '\n%s' "$summary"
[ -z "$failed" ] || {
  echo "failed:$failed"
  exit 1
}
