#!/usr/bin/env python3
"""Diff a DynamIPs metrics JSON document against a checked-in baseline.

Usage:
  check_metrics.py CANDIDATE BASELINE [--verbose]
  check_metrics.py CANDIDATE BASELINE --update-baseline
  check_metrics.py CANDIDATE --require-counters=PAT[,PAT...]
  check_metrics.py CANDIDATE --compare-to=REF [--ignore-counters=PAT,...]
      [--ignore-gauges=PAT,...]

The candidate is a document written by `--metrics-out` (schema
"dynamips.metrics.v1", see src/obs/metrics_json.h). The baseline is a
subset contract: every counter / histogram total it lists must be present
in the candidate and match. Comparison rules:

  * schema strings must match exactly;
  * when candidate and baseline were produced at the same (scale, seed,
    window_hours), counters must match EXACTLY — counters are
    thread-invariant and deterministic, so CI gates them byte-for-byte;
  * when the run parameters differ, expected values are scaled linearly
    by the probe/subscriber scale ratio and compared with a relative
    tolerance (per-metric, else "default_scaled") — this keeps one smoke
    baseline usable for quick local runs at other scales;
  * "require_phases" / "require_gauges" names must merely exist (phases
    with count > 0): timings and gauges are wall-clock- or
    shard-dependent and never value-gated;
  * candidate metrics absent from the baseline are ignored, so one
    atlas-side baseline gates atlas-only benches and the full study
    driver alike.

Tolerances are fnmatch patterns mapped to relative deviations, e.g.
  "tolerances": {"sanitize.dropped_*": 0.5, "default_scaled": 0.25}

`--update-baseline` rewrites BASELINE's counters/histogram_totals/meta
from CANDIDATE, preserving the existing tolerance and requirement lists.

`--require-counters` is a candidate-only presence gate (no baseline
needed): every fnmatch pattern must match at least one counter with a
value > 0. CI uses it to assert that a corrupted-ingest run actually
rejected lines (`--require-counters='ingest.reject.*'`). It composes
with a baseline compare when both CANDIDATE and BASELINE are given.

`--compare-to=REF` diffs two full metrics documents instead of gating
against a subset baseline: counters and gauges must match EXACTLY in
BOTH directions (a metric present on one side and absent from the
other is a failure), and histograms must agree on totals and every
bucket. Phase timings and meta are ignored — they are wall-clock- or
environment-dependent. `--ignore-counters=PAT[,PAT...]` exempts
matching counter names from the two-way diff; the crash-resume soak leg
uses `--ignore-counters='checkpoint.*'` because an interrupted+resumed
run legitimately carries supervision counters its straight-through
reference lacks. `--ignore-gauges=PAT[,PAT...]` does the same for
gauges that legitimately vary between equivalent runs (shard counts
and imbalance when the two runs used different thread counts,
`stream.lag_seconds`, `process.peak_rss_bytes`). Composes with
`--require-counters`.

`--ignore-fault-counters` is shorthand for the fault-path exemption
list chaos runs need: it appends `io.retries`/`io.giveups`/
`checkpoint.write_failures`/`lg.shed`/`lg.slow_client_drops`-style
counters (see FAULT_COUNTER_PATTERNS) to `--ignore-counters`, so a
run under an armed DYNAMIPS_FAILPOINTS spec still gates on
study-output metric identity while its retry/shed accounting is free
to differ from the fault-free reference.

In --compare-to mode the `resource.*` / `supervise.*` families
(resource governor and supervisor telemetry) are exempt by default:
they exist only on runs with budgets or `--supervise` and move with
pressure/restarts by design, while the study outputs they must never
change stay gated exactly.

Exit status: 0 on pass, 1 on mismatch, 2 on usage/format errors.
Stdlib-only by design (runs in bare CI containers).
"""

import fnmatch
import json
import sys

SCHEMA = "dynamips.metrics.v1"

# Counters that only move on fault paths (injected or real): retry/giveup
# accounting, checkpoint supervision, and looking-glass overload
# protection. `--ignore-fault-counters` appends these to the
# --ignore-counters exemption list so chaos runs still gate on
# study-output identity.
FAULT_COUNTER_PATTERNS = [
    "io.retries",
    "io.giveups",
    "checkpoint.write_failures",
    "checkpoint.interrupted",
    "checkpoint.resumes",
    "lg.shed",
    "lg.slow_client_drops",
]

# Resource-governor and supervisor accounting (core/resource.h,
# core/supervise.h). These only exist on runs with budgets or --supervise
# and describe *how* the run got there (pauses, restarts, shed
# diagnostics), never the study outputs — which stay gated exactly. They
# are exempted by default in --compare-to mode so a governed run checks
# green against a pre-governor (or unpressured) reference.
GOVERNOR_METRIC_PATTERNS = [
    "resource.*",
    "supervise.*",
]


def fail(msg):
    print(f"check_metrics: {msg}", file=sys.stderr)
    return 2


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def tolerance_for(name, tolerances, same_params):
    """Relative tolerance for one metric; None means exact match.

    Exact whenever run parameters match (deterministic counters); the
    per-metric patterns only soften cross-scale comparisons, where
    per-ISP rounding and Bernoulli anomaly draws break strict linearity.
    """
    if same_params:
        return None
    for pattern, tol in tolerances.items():
        if pattern == "default_scaled":
            continue
        if fnmatch.fnmatch(name, pattern):
            return float(tol)
    return float(tolerances.get("default_scaled", 0.25))


def compare_value(name, got, want, scale_ratio, tolerances, same_params,
                  problems, verbose):
    expected = want if same_params else want * scale_ratio
    tol = tolerance_for(name, tolerances, same_params)
    if tol is None:
        ok = got == expected
        detail = f"expected exactly {expected}"
    elif expected == 0:
        ok = got == 0
        detail = "expected 0"
    else:
        deviation = abs(got - expected) / abs(expected)
        ok = deviation <= tol
        detail = (f"expected {expected:.1f} ±{tol:.0%}"
                  f" (deviation {deviation:.1%})")
    if not ok:
        problems.append(f"{name}: got {got}, {detail}")
    elif verbose:
        print(f"  ok {name}: {got} ({detail})")
    return ok


def check(candidate, baseline, verbose=False):
    problems = []

    if candidate.get("schema") != SCHEMA:
        problems.append(
            f"candidate schema {candidate.get('schema')!r} != {SCHEMA!r}")
    if baseline.get("schema") != SCHEMA:
        problems.append(
            f"baseline schema {baseline.get('schema')!r} != {SCHEMA!r}")
    if problems:
        return problems

    cmeta = candidate.get("meta", {})
    bmeta = baseline.get("meta", {})
    same_params = all(
        cmeta.get(k) == bmeta.get(k)
        for k in ("scale", "seed", "window_hours"))
    base_scale = float(bmeta.get("scale") or 0)
    cand_scale = float(cmeta.get("scale") or 0)
    scale_ratio = cand_scale / base_scale if base_scale else 1.0
    if verbose and not same_params:
        print(f"  run parameters differ; scaling expectations by "
              f"{scale_ratio:.3f}")

    tolerances = baseline.get("tolerances", {})
    counters = candidate.get("counters", {})
    for name, want in sorted(baseline.get("counters", {}).items()):
        if name not in counters:
            problems.append(f"{name}: missing from candidate counters")
            continue
        compare_value(name, counters[name], want, scale_ratio, tolerances,
                      same_params, problems, verbose)

    histograms = candidate.get("histograms", {})
    for name, want in sorted(baseline.get("histogram_totals", {}).items()):
        if name not in histograms:
            problems.append(f"{name}: missing from candidate histograms")
            continue
        compare_value(f"{name}.total", histograms[name].get("total", 0),
                      want, scale_ratio, tolerances, same_params, problems,
                      verbose)

    phases = candidate.get("phases", {})
    for name in baseline.get("require_phases", []):
        if phases.get(name, {}).get("count", 0) <= 0:
            problems.append(f"{name}: required phase missing or empty")
        elif verbose:
            print(f"  ok phase {name}: count={phases[name]['count']}")

    gauges = candidate.get("gauges", {})
    for name in baseline.get("require_gauges", []):
        if name not in gauges:
            problems.append(f"{name}: required gauge missing")
        elif verbose:
            print(f"  ok gauge {name}: {gauges[name]}")

    return problems


def update_baseline(candidate, baseline_path):
    try:
        baseline = load(baseline_path)
    except (OSError, ValueError):
        baseline = {}
    gated = baseline.get("counters")
    counters = candidate.get("counters", {})
    baseline["schema"] = SCHEMA
    baseline["meta"] = {
        k: candidate.get("meta", {}).get(k)
        for k in ("scale", "seed", "window_hours")
    }
    # Refresh only the metrics already gated when the baseline exists;
    # otherwise gate every counter of the candidate.
    names = sorted(gated) if gated else sorted(counters)
    baseline["counters"] = {
        n: counters[n] for n in names if n in counters
    }
    hist_names = sorted(baseline.get("histogram_totals") or
                        candidate.get("histograms", {}))
    baseline["histogram_totals"] = {
        n: candidate["histograms"][n]["total"]
        for n in hist_names if n in candidate.get("histograms", {})
    }
    baseline.setdefault("tolerances", {"default_scaled": 0.25})
    baseline.setdefault("require_phases", [])
    baseline.setdefault("require_gauges", [])
    with open(baseline_path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"updated {baseline_path} "
          f"({len(baseline['counters'])} gated counters)")


def compare_documents(candidate, reference, ignore_patterns,
                      ignore_gauge_patterns=(), verbose=False):
    """Two-way exact diff of counters, gauges, and histograms between two
    full metrics documents (the resumed-vs-straight crash-recovery gate
    and the streamed-vs-one-shot identity gate).

    Counters/gauges matching their ignore patterns are exempt on both
    sides; no such exemption exists for histograms — analyzer histograms
    must survive checkpoint/resume bit-for-bit.
    """
    problems = []
    if candidate.get("schema") != reference.get("schema"):
        problems.append(
            f"schema {candidate.get('schema')!r} != "
            f"reference {reference.get('schema')!r}")
        return problems

    def diff_section(kind, got, want, patterns):
        def ignored(name):
            return any(fnmatch.fnmatch(name, p) for p in patterns)

        for name in sorted(set(got) | set(want)):
            if ignored(name):
                if verbose:
                    print(f"  ignored {kind} {name}")
                continue
            if name not in got:
                problems.append(f"{name}: missing from candidate {kind}s")
            elif name not in want:
                problems.append(f"{name}: unexpected {kind} "
                                f"(absent from reference)")
            elif got[name] != want[name]:
                problems.append(
                    f"{name}: got {got[name]}, reference has {want[name]}")
            elif verbose:
                print(f"  ok {kind} {name}: {got[name]}")

    diff_section("counter", candidate.get("counters", {}),
                 reference.get("counters", {}), ignore_patterns)
    diff_section("gauge", candidate.get("gauges", {}),
                 reference.get("gauges", {}), ignore_gauge_patterns)

    ghist = candidate.get("histograms", {})
    rhist = reference.get("histograms", {})
    for name in sorted(set(ghist) | set(rhist)):
        if name not in ghist:
            problems.append(f"{name}: missing from candidate histograms")
            continue
        if name not in rhist:
            problems.append(f"{name}: unexpected histogram "
                            f"(absent from reference)")
            continue
        g, r = ghist[name], rhist[name]
        if g.get("total") != r.get("total"):
            problems.append(f"{name}.total: got {g.get('total')}, "
                            f"reference has {r.get('total')}")
        elif g.get("buckets") != r.get("buckets"):
            problems.append(f"{name}: bucket contents differ "
                            f"(totals match: {g.get('total')})")
        elif verbose:
            print(f"  ok histogram {name}: total={g.get('total')}")

    return problems


def check_required_counters(candidate, patterns, verbose=False):
    """Candidate-only presence gate: each pattern must match at least one
    counter with a value > 0."""
    problems = []
    counters = candidate.get("counters", {})
    for pattern in patterns:
        hits = {n: v for n, v in counters.items()
                if fnmatch.fnmatch(n, pattern) and v > 0}
        if not hits:
            problems.append(
                f"{pattern}: no counter matching the pattern has value > 0")
        elif verbose:
            for name, value in sorted(hits.items()):
                print(f"  ok required {name}: {value}")
    return problems


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    flags = {a for a in argv[1:] if a.startswith("--")}
    required = []
    compare_to = None
    ignore_counters = []
    ignore_gauges = []
    # Accumulate (never assign) the pattern lists: `flags` is a set, so
    # --ignore-counters=... and --ignore-fault-counters arrive in arbitrary
    # order and must compose regardless.
    for flag in list(flags):
        if flag.startswith("--require-counters="):
            required += [p for p in
                         flag[len("--require-counters="):].split(",") if p]
            flags.remove(flag)
        elif flag.startswith("--compare-to="):
            compare_to = flag[len("--compare-to="):]
            flags.remove(flag)
        elif flag.startswith("--ignore-counters="):
            ignore_counters += [p for p in
                                flag[len("--ignore-counters="):].split(",")
                                if p]
            flags.remove(flag)
        elif flag.startswith("--ignore-gauges="):
            ignore_gauges += [p for p in
                              flag[len("--ignore-gauges="):].split(",") if p]
            flags.remove(flag)
        elif flag == "--ignore-fault-counters":
            ignore_counters += FAULT_COUNTER_PATTERNS
            flags.remove(flag)
    unknown = flags - {"--verbose", "--update-baseline"}
    usage = (__doc__.strip().splitlines()[0] +
             "\nusage: check_metrics.py CANDIDATE BASELINE "
             "[--verbose|--update-baseline]"
             "\n       check_metrics.py CANDIDATE "
             "--require-counters=PAT[,PAT...]"
             "\n       check_metrics.py CANDIDATE --compare-to=REF "
             "[--ignore-counters=PAT,...] [--ignore-gauges=PAT,...] "
             "[--ignore-fault-counters]")
    if unknown:
        return fail(usage)
    if (ignore_counters or ignore_gauges) and compare_to is None:
        return fail("--ignore-counters/--ignore-gauges only apply with "
                    "--compare-to\n" + usage)
    if compare_to is not None:
        # Always-on exemption: governor/supervisor telemetry varies with
        # pressure and restarts by design (see GOVERNOR_METRIC_PATTERNS).
        ignore_counters = ignore_counters + GOVERNOR_METRIC_PATTERNS
        ignore_gauges = ignore_gauges + GOVERNOR_METRIC_PATTERNS
    if len(args) != 2 and not (len(args) == 1 and (required or compare_to)):
        return fail(usage)

    candidate_path = args[0]
    baseline_path = args[1] if len(args) == 2 else None
    try:
        candidate = load(candidate_path)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read candidate {candidate_path}: {exc}")

    if "--update-baseline" in flags:
        if baseline_path is None:
            return fail(usage)
        update_baseline(candidate, baseline_path)
        return 0

    verbose = "--verbose" in flags
    problems = check_required_counters(candidate, required, verbose)
    if compare_to is not None:
        try:
            reference = load(compare_to)
        except (OSError, ValueError) as exc:
            return fail(f"cannot read reference {compare_to}: {exc}")
        problems += compare_documents(candidate, reference, ignore_counters,
                                      ignore_gauges, verbose)
    if baseline_path is not None:
        try:
            baseline = load(baseline_path)
        except (OSError, ValueError) as exc:
            return fail(f"cannot read baseline {baseline_path}: {exc}")
        problems += check(candidate, baseline, verbose)

    if problems:
        print(f"check_metrics: {candidate_path} fails:", file=sys.stderr)
        for p in problems:
            print(f"  FAIL {p}", file=sys.stderr)
        return 1
    against = ""
    if compare_to:
        against = f" against {compare_to}"
    elif baseline_path:
        against = f" against {baseline_path}"
    print(f"check_metrics: {candidate_path} passes{against}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
