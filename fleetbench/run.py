#!/usr/bin/env python3
"""Build and run the fleet benchmark, or check how steady its figures are.

Run one workload (from the root of the repository):

    python3 fleetbench/run.py --workload drift --seed 1 --seconds 10 --trace 0

builds the Go program in fleetbench/ into .bench_build/ (the Go build
cache and temporary files stay there too) and runs it. Its last line of
output is the JSON result.

Steadiness mode runs each workload K times with seeds 1 .. K (each run
as long as BENCHMARK.json's run_seconds) and prints every end-to-end
metric's median, quartiles and spread (quartile distance over median)
beside its bound from BENCHMARK.json. It fails if a spread exceeds its
bound:

    python3 fleetbench/run.py steadiness --runs 10 --out set1.json

Compare two such sets: each metric's second median must lie within the
metric's bound of the first, in either direction, and the share of
failed operations must be the same:

    python3 fleetbench/run.py compare set1.json set2.json
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "fleetbench")
WORKLOADS = ["steady", "drift", "restart"]
RUN_TIMEOUT = 175


def build():
    """Build the benchmark binary; exit non-zero if that is impossible."""
    go = shutil.which("go")
    if go is None:
        sys.exit("fleetbench: no go toolchain on PATH")
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        sys.exit("fleetbench: no go.mod at %s; run from a checkout of the repository" % ROOT)
    for d in ("gocache", "tmp", "config", "gopath"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    cmd = [go, "build", "-buildvcs=false", "-o", BINARY, "./fleetbench"]
    res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if res.returncode != 0:
        sys.exit("fleetbench: build failed")


def run_once(workload, seed, seconds, trace, capture):
    """Run the built binary once. Returns (exit code, stdout text)."""
    cmd = [BINARY, "-workload", workload, "-seed", str(seed),
           "-seconds", str(seconds), "-trace", str(trace)]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["-trace-out", os.path.join(traces, "%s-%s.ndjson" % (workload, seed))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("fleetbench: run exceeded %d s" % RUN_TIMEOUT, file=sys.stderr)
        return 1, ""
    return proc.returncode, out or ""


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bounds():
    return {m["name"]: m for m in spec()["end_to_end"]}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steadiness(args):
    marks = bounds()
    seconds = spec()["run_seconds"]
    out = {}
    ok = True
    for w in WORKLOADS:
        values, failed, attempted = {}, 0, 0
        for seed in range(1, args.runs + 1):
            code, text = run_once(w, seed, seconds, 0, True)
            lines = text.strip().splitlines()
            if code != 0 or not lines:
                print("%s seed %d: run failed (exit %d)" % (w, seed, code))
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"]:
                ok = False
            failed += res["failed"]
            attempted += res["attempted"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (w, seed, json.dumps(res["metrics"])), flush=True)
        out[w] = {"values": values, "failed": failed, "attempted": attempted}
        print("\n%s: %d runs, failed %d of %d operations" % (w, args.runs, failed, attempted))
        print("%-24s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in sorted(values):
            if len(values[name]) < 2:
                continue
            med, q1, q3, sp = spread(values[name])
            bound = marks.get(name, {}).get("bound", float("nan"))
            note = ""
            if sp > bound:
                note, ok = "OVER BOUND", False
            elif sp > bound / 3:
                note = "over a third of the bound"
            print("%-24s %12.4f %12.4f %12.4f %8.4f %6.2f %s" % (name, med, q1, q3, sp, bound, note))
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
    return 0 if ok else 1


def compare(args):
    marks = bounds()
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    ok = True
    for w in sorted(set(a) & set(b)):
        fa = a[w]["failed"] / max(a[w]["attempted"], 1)
        fb = b[w]["failed"] / max(b[w]["attempted"], 1)
        if fa != fb:
            print("%s: failed share %.6f vs %.6f" % (w, fa, fb))
            ok = False
        for name in sorted(a[w]["values"]):
            if name not in marks or name not in b[w]["values"]:
                continue
            ma = statistics.median(a[w]["values"][name])
            mb = statistics.median(b[w]["values"][name])
            shift = (mb - ma) / ma
            verdict = "ok"
            if abs(shift) > marks[name]["bound"]:
                verdict, ok = "OUTSIDE BOUND", False
            print("%-8s %-24s %12.4f %12.4f %+8.4f (bound %.2f) %s" %
                  (w, name, ma, mb, shift, marks[name]["bound"], verdict))
    return 0 if ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("steadiness", "compare"):
        p = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "steadiness":
            p.add_argument("--runs", type=int, default=10)
            p.add_argument("--out", default="")
            args = p.parse_args(sys.argv[2:])
            build()
            return steadiness(args)
        p.add_argument("first")
        p.add_argument("second")
        return compare(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    build()
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
