#!/usr/bin/env python3
"""Check that every dynamips_study flag the docs use is a real flag.

Collects each `--flag` that follows a `dynamips_study` invocation in
README.md, EXPERIMENTS.md, DESIGN.md, .github/workflows/ci.yml and the
soak legs tests/soak/*.sh, and requires it to appear in `dynamips_study
--help`. The help text is generated from the same flag table the parser
reads, so it is the exact set of accepted flags; a doc example with a
misspelled or removed flag fails here instead of failing for the reader.

Usage:
  check_cli_docs.py STUDY_BINARY [--root REPO_ROOT]

A shell command ends at a backtick (inline code in prose), a pipe, `;`,
`&`, a redirect or a comment; backslash-continued lines are joined first.
Stdlib only.
"""
import argparse
import glob
import os
import re
import subprocess
import sys

DOCS = ["README.md", "EXPERIMENTS.md", "DESIGN.md", ".github/workflows/ci.yml",
        "tests/soak/*.sh"]
# `dynamips_study` as a command word: not `dynamips_study.cpp`.
INVOCATION = re.compile(r"dynamips_study(?=\s|$)")
COMMAND_END = re.compile(r"[`|;&>]|\s#")
FLAG = re.compile(r"(?<![\w-])--[A-Za-z0-9][A-Za-z0-9-]*")
HELP_LINE = re.compile(r"^\s+(--?[A-Za-z0-9][A-Za-z0-9-]*)")


def accepted_flags(study):
    proc = subprocess.run([study, "--help"], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{study} --help exited {proc.returncode}")
    flags = set()
    for line in (proc.stdout + proc.stderr).splitlines():
        m = HELP_LINE.match(line)
        if m:
            flags.add(m.group(1))
    if not flags:
        sys.exit(f"{study} --help lists no flags")
    return flags


def logical_lines(text):
    """(first line number, text) with backslash continuations joined."""
    start, parts = None, []
    for number, line in enumerate(text.splitlines(), 1):
        if start is None:
            start = number
        if line.rstrip().endswith("\\"):
            parts.append(line.rstrip()[:-1])
            continue
        parts.append(line)
        yield start, " ".join(parts)
        start, parts = None, []
    if parts:
        yield start, " ".join(parts)


def used_flags(path):
    """Yield (line number, flag) for each flag of each invocation."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    for number, line in logical_lines(text):
        for m in INVOCATION.finditer(line):
            rest = line[m.end():]
            end = COMMAND_END.search(rest)
            for flag in FLAG.findall(rest[:end.start()] if end else rest):
                yield number, flag


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("study", help="path to the dynamips_study binary")
    ap.add_argument("--root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir))
    args = ap.parse_args()

    accepted = accepted_flags(args.study)
    docs = [os.path.relpath(path, args.root) for pattern in DOCS
            for path in sorted(glob.glob(os.path.join(args.root, pattern)))]
    checked, unknown = 0, []
    for doc in docs:
        for number, flag in used_flags(os.path.join(args.root, doc)):
            checked += 1
            if flag not in accepted:
                unknown.append(f"{doc}:{number}: {flag}")
    if checked == 0:
        sys.exit("no dynamips_study invocations found in the docs")
    if unknown:
        print("dynamips_study flags used in the docs but not accepted "
              "(see dynamips_study --help):")
        for entry in unknown:
            print("  " + entry)
        return 1
    print(f"ok: {checked} flag uses in {len(docs)} docs are all accepted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
