#!/usr/bin/env python3
"""Build and run the MCCP benchmark (see README.md in this directory).

One workload, one run (the contract BENCHMARK.json describes):

    python3 perfbench/run.py --workload radio_fast --seed 1 --seconds 10 --trace 0

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it stamps the host (CPU, nproc, crypto kernel tier, build
type, source commit). --trace 1 reports the per-layer metrics instead of
the end-to-end ones and prints the traced ledger on stderr.

Every workload, both tables:

    python3 perfbench/run.py --report [--seconds 3] [--seed N]

Layer-sensitivity self-test (a synthetic delay at one boundary must show
in that layer and in pkts_per_s, and nowhere else):

    python3 perfbench/run.py --self-test [--workload radio_fast]

The program is built from the checkout's src/ with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["radio_sim", "radio_fast", "churn_fast", "tenant_net"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "host", "engine.h")):
        fail(f"no MCCP sources under {ROOT}/src; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT if not os.path.isabs(target) else "", target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    if os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "mccp_perfbench")


def source_commit():
    """The git commit of a git checkout, else a hash of the source tree."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    for base in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, extra=(), echo=True):
    cmd = [binary, "--workload", workload, "--seconds", str(seconds), "--trace", str(trace),
           "--workloads-dir", os.path.join(HERE, "workloads"), "--commit", source_commit()]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    cmd += list(extra)
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if echo:
        sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr if not echo else "")
        fail(f"{workload} exited with code {p.returncode}")
    return lines, json.loads(lines[-1])


def metric_table(results, title):
    names = []
    for r in results.values():
        for k in r["metrics"]:
            if k not in names:
                names.append(k)
    print(f"\n{title}")
    print(f"  {'metric':34s} {'unit':7s}" + "".join(f"{w:>16s}" for w in results))
    for k in names:
        unit = next(r["metrics"][k]["unit"] for r in results.values() if k in r["metrics"])
        row = "".join(f"{results[w]['metrics'].get(k, {}).get('value', float('nan')):16.6g}"
                      for w in results)
        print(f"  {k:34s} {unit:7s}{row}")
    print("  " + " ".join(f"{w}: correct={r['correct']} attempted={r['attempted']} "
                          f"failed={r['failed']}" for w, r in results.items()))


def report(binary, seed, seconds):
    for trace, title in ((0, "End-to-end metrics (untraced runs)"),
                         (1, "Per-layer metrics (traced runs)")):
        results = {}
        for w in WORKLOADS:
            lines, results[w] = run_once(binary, w, seed, seconds, trace)
            if w == WORKLOADS[0] and len(lines) > 1:
                print("host:", json.loads(lines[-2])["host"])
        metric_table(results, title)
    return 0


def self_test(binary, workload, seconds):
    """Inject a delay at one boundary; it must show in that layer's metric
    and in pkts_per_s, and leave the other timed layers within their spread."""
    timed = ["workload.gen_ns_per_pkt", "workload.callback_ns_per_pkt", "host.submit_ns_per_pkt",
             "device.step_ns_per_pkt", "device.submit_ns_per_pkt", "device.poll_ns_per_pkt"]
    delay = 5000

    def layers(extra=()):
        return {k: v["value"] for k, v in
                run_once(binary, workload, None, seconds, 1, extra, echo=False)[1]["metrics"].items()}

    def pps(extra=()):
        return run_once(binary, workload, None, seconds, 0, extra,
                        echo=False)[1]["metrics"]["pkts_per_s"]["value"]

    base = [layers() for _ in range(3)]
    base_pps = [pps() for _ in range(3)]
    med = {k: statistics.median(b[k] for b in base) for k in timed}
    spread = {k: (max(b[k] for b in base) - min(b[k] for b in base)) / med[k] if med[k] else 0
              for k in timed}
    pps_med = statistics.median(base_pps)
    ok = True
    for boundary, layer, per_pkt in (
            ("device.step", "device.step_ns_per_pkt", "host.device_rounds_per_pkt"),
            ("workload.callback", "workload.callback_ns_per_pkt", None)):
        extra = ["--inject", f"{boundary}:{delay}"]
        got = layers(extra)
        expect = delay * (statistics.median(b[per_pkt] for b in base) if per_pkt else 1.0)
        rise = got[layer] - med[layer]
        slow = pps(extra)
        print(f"inject {delay} ns at {boundary}: {layer} +{rise:.0f} ns/pkt "
              f"(expected ~{expect:.0f}); pkts_per_s {pps_med:.0f} -> {slow:.0f}")
        if not 0.7 * expect <= rise <= 1.5 * expect:
            ok = False
            print(f"  FAIL: {layer} did not move by the injected delay")
        if not slow < min(base_pps):
            ok = False
            print("  FAIL: pkts_per_s did not drop below every base run")
        for k in timed:
            if k == layer:
                continue
            tol = max(3 * spread[k], 0.25)
            change = (got[k] - med[k]) / med[k] if med[k] else 0.0
            flag = "" if abs(change) <= tol else "  FAIL"
            ok = ok and not flag
            print(f"  {k:32s} {med[k]:10.1f} -> {got[k]:10.1f} ({change:+.1%}, tol {tol:.0%}){flag}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true", help="run every workload, print both tables")
    ap.add_argument("--self-test", action="store_true", help="layer-sensitivity self-test")
    args = ap.parse_args()
    binary = build()
    if args.report:
        return report(binary, args.seed, args.seconds or 3)
    if args.self_test:
        return self_test(binary, args.workload or "radio_fast", args.seconds or 3)
    if args.workload is None:
        ap.error("--workload is required")
    lines, _ = run_once(binary, args.workload, args.seed, args.seconds or 10, args.trace)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
