#!/usr/bin/env python3
"""Replay an exported dataset as a stream of per-time-slice batch files.

Splits an exported echo or association CSV (examples/dataset_roundtrip,
io/readers.h) into N batch files by record time — the hour column for
echo datasets, the day column for association datasets — and drops them
into a watch directory on a schedule, simulating a live feed for
`dynamips_study --follow`. Uses only the stdlib so it runs anywhere the
repo builds.

Each batch re-emits the schema header plus the `#probe`/`#tags` (echo) or
`#log` (assoc) group preambles of every group with at least one record in
the slice, so every batch is a well-formed dataset on its own. A slice
with no records is skipped entirely (with a note) rather than published
as a record-less file — the degenerate case is a dataset whose records
all share one timestamp, where every record lands in slice 0 and the
other N-1 slices are empty. Skipped slices keep their indices: batch
names stay zero-padded (width grows with --batches) so lexicographic
consumption order equals production order, and files are published via
tmp + rename so the consumer never observes a half-written batch.

Optional fault injection reuses tools/corrupt_csv.py on one chosen batch
(--corrupt-batch), exercising the ingestion error budget mid-stream with
the exact same deterministic fault modes CI already uses for one-shot
ingestion.

After the last batch a stop sentinel (default `stream.stop`) is dropped,
telling the consumer to run its final re-finalization and exit; suppress
it with --no-sentinel when the consumer is stopped another way.

Usage:
  stream_feed.py IN WATCH_DIR --kind echo --batches 10 [--interval-ms 50]
      [--prefix batch]
      [--sentinel stream.stop | --no-sentinel]
      [--corrupt-batch I --corrupt-rate R --corrupt-seed S]
"""

import argparse
import os
import sys
import time

from corrupt_csv import MODES, corrupt

TIME_FIELD = {"echo": 1, "assoc": 0}  # hour / day column, 0-based


def parse_groups(lines, kind):
    """Split dataset lines into (header, groups); each group is a dict with
    its preamble lines and [(time, record_line), ...] in file order."""
    if not lines:
        sys.exit("stream_feed: input is empty")
    header, body = lines[0], lines[1:]
    field = TIME_FIELD[kind]
    groups = []
    current = None
    starter = "#probe," if kind == "echo" else "#log,"
    for line in body:
        if not line.strip():
            continue
        if line.startswith("#"):
            if line.startswith(starter) or current is None:
                current = {"preamble": [], "records": []}
                groups.append(current)
            current["preamble"].append(line)
            continue
        if current is None:  # records before any preamble: one headless group
            current = {"preamble": [], "records": []}
            groups.append(current)
        cols = line.split(",")
        if len(cols) <= field:
            sys.exit(f"stream_feed: malformed record line: {line!r}")
        current["records"].append((int(cols[field]), line))
    return header, groups


def slice_index(t, tmin, tmax, batches):
    """Equal-width time slices over [tmin, tmax]; monotone in t."""
    span = tmax - tmin + 1
    return min(batches - 1, (t - tmin) * batches // span)


def render_batches(header, groups, batches):
    """Batch index -> list of lines (header + per-group preamble+records).
    An empty slice renders as just [header]; the caller skips those."""
    times = [t for g in groups for (t, _) in g["records"]]
    if not times:
        sys.exit("stream_feed: input has no record lines")
    tmin, tmax = min(times), max(times)
    out = []
    for b in range(batches):
        lines = [header]
        for g in groups:
            slice_records = [
                line
                for (t, line) in g["records"]
                if slice_index(t, tmin, tmax, batches) == b
            ]
            if slice_records:
                lines.extend(g["preamble"])
                lines.extend(slice_records)
        out.append(lines)
    return out


def publish(path, lines):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def main():
    ap = argparse.ArgumentParser(
        description="Replay an exported dataset as timed batch files."
    )
    ap.add_argument("input", help="exported dataset CSV")
    ap.add_argument("watch_dir", help="directory the consumer follows")
    ap.add_argument("--kind", choices=("echo", "assoc"), required=True)
    ap.add_argument("--batches", type=int, default=10)
    ap.add_argument("--interval-ms", type=int, default=0,
                    help="pause between batch drops")
    ap.add_argument("--prefix", default="batch")
    ap.add_argument("--sentinel", default="stream.stop")
    ap.add_argument("--no-sentinel", action="store_true",
                    help="do not drop the stop sentinel after the last batch")
    ap.add_argument("--corrupt-batch", type=int, default=-1,
                    help="0-based index of one batch to damage")
    ap.add_argument("--corrupt-rate", type=float, default=0.02)
    ap.add_argument("--corrupt-seed", type=int, default=7)
    args = ap.parse_args()

    if args.batches < 1:
        sys.exit("stream_feed: --batches must be >= 1")
    with open(args.input, encoding="utf-8") as f:
        lines = f.read().splitlines()
    header, groups = parse_groups(lines, args.kind)
    rendered = render_batches(header, groups, args.batches)

    # Index width scales with the batch count (floor of 3 keeps historic
    # names stable); the consumer orders numerically either way.
    pad = max(3, len(str(args.batches - 1)))

    os.makedirs(args.watch_dir, exist_ok=True)
    dropped = 0
    for b, batch_lines in enumerate(rendered):
        if len(batch_lines) <= 1:  # header only: empty time slice
            print(f"stream_feed: slice {b} is empty, skipped")
            continue
        name = f"{args.prefix}-{b:0{pad}d}.csv"
        if b == args.corrupt_batch:
            batch_lines, counts = corrupt(
                batch_lines, args.corrupt_seed, args.corrupt_rate,
                MODES, protect_header=True,
            )
            damage = ", ".join(f"{m}={n}" for m, n in counts.items() if n)
            print(f"stream_feed: damaged batch {b} ({damage or 'no hits'})")
        publish(os.path.join(args.watch_dir, name), batch_lines)
        print(f"stream_feed: dropped {name} ({len(batch_lines) - 1} lines)")
        dropped += 1
        if args.interval_ms > 0 and b + 1 < len(rendered):
            time.sleep(args.interval_ms / 1000.0)

    if dropped == 0:
        sys.exit("stream_feed: every slice was empty — nothing published")
    if not args.no_sentinel:
        publish(os.path.join(args.watch_dir, args.sentinel), [""])
        print(f"stream_feed: dropped {args.sentinel}")


if __name__ == "__main__":
    main()
