#!/usr/bin/env python3
"""Gate the median of N bench samples against a floor or a ceiling.

A single wall-clock sample on a shared runner flakes; the median of a few
repeats does not move with one slow run. Each FILE is one bench JSON
report from a repeated run of the same command; each --check names a
dotted field path in those reports and a bound:

    median_gate.py --check 'head_to_head.sim.wall_ms<=590' \\
                   --check 'head_to_head.wall_clock_speedup>=4' \\
                   BENCH_a.json BENCH_b.json BENCH_c.json

Every check prints its samples and median. Exit codes: 0 every median
within its bound, 1 a bound failed, 2 bad input (missing file or field,
unparseable check). --self-test runs the built-in checks.
"""

import argparse
import json
import re
import statistics
import sys

CHECK = re.compile(r"^([A-Za-z0-9_.]+)\s*(<=|>=)\s*(-?[0-9.]+(?:[eE][-+]?[0-9]+)?)$")


class BadInput(Exception):
    pass


def parse_check(text):
    m = CHECK.match(text.strip())
    if not m:
        raise BadInput(f"bad --check {text!r}: want FIELD.PATH<=N or FIELD.PATH>=N")
    return m.group(1), m.group(2), float(m.group(3))


def field(doc, path):
    cur = doc
    for key in path.split("."):
        if not isinstance(cur, dict) or key not in cur:
            raise BadInput(f"field {path!r} missing (at {key!r})")
        cur = cur[key]
    if not isinstance(cur, (int, float)) or isinstance(cur, bool):
        raise BadInput(f"field {path!r} is not a number: {cur!r}")
    return float(cur)


def run_checks(docs, checks):
    """Returns (ok, lines): one line per check."""
    ok = True
    lines = []
    for path, op, bound in checks:
        samples = [field(d, path) for d in docs]
        med = statistics.median(samples)
        passed = med <= bound if op == "<=" else med >= bound
        ok &= passed
        shown = ", ".join(f"{s:g}" for s in samples)
        lines.append(f"{'ok  ' if passed else 'FAIL'} {path}: median {med:g} {op} {bound:g} "
                     f"(samples {shown})")
    return ok, lines


def self_test():
    docs = [{"a": {"wall": 500.0}, "s": 5}, {"a": {"wall": 900.0}, "s": 3},
            {"a": {"wall": 550.0}, "s": 6}]
    ok, _ = run_checks(docs, [parse_check("a.wall<=590"), parse_check("s>=4")])
    assert ok, "one slow sample must not fail a median ceiling"
    ok, _ = run_checks(docs[:2] + [{"a": {"wall": 700.0}, "s": 5}], [parse_check("a.wall<=590")])
    assert not ok, "two slow samples must fail the ceiling"
    ok, _ = run_checks(docs, [parse_check("s>=5.5")])
    assert not ok, "median 5 must fail a floor of 5.5"
    for bad in ("a.wall<590", "a.wall", "<=3"):
        try:
            parse_check(bad)
            raise AssertionError(f"accepted {bad!r}")
        except BadInput:
            pass
    try:
        run_checks(docs, [parse_check("a.missing<=1")])
        raise AssertionError("accepted a missing field")
    except BadInput:
        pass
    print("median_gate self-test: ok")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="append", default=[], metavar="FIELD.PATH<=N|>=N")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("files", nargs="*")
    args = ap.parse_args(argv)
    if args.self_test:
        self_test()
        return 0
    try:
        if not args.files or not args.check:
            raise BadInput("need at least one --check and one report file")
        checks = [parse_check(c) for c in args.check]
        docs = []
        for path in args.files:
            try:
                with open(path) as f:
                    docs.append(json.load(f))
            except (OSError, ValueError) as e:
                raise BadInput(f"{path}: {e}")
        ok, lines = run_checks(docs, checks)
    except BadInput as e:
        print(f"median_gate: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
