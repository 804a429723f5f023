#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Run from the root of a checkout:

  python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1
      One run of one workload.  Builds perfbench/main.exe with dune, runs
      it, checks its result line against BENCHMARK.json and prints it as
      the last line of standard output.  Traced runs write their Chrome
      trace to perfbench/out/W.trace.json.

  python3 perfbench/run.py suite --seed S [--seconds T] [--trace 0|1] [--out FILE]
      Every workload of BENCHMARK.json, each in its own process (a fresh
      heap), appending one JSON record per run to FILE.

  python3 perfbench/run.py compare OLD NEW
      OLD and NEW are files of suite records (one or more runs each).  For
      every workload and end-to-end metric prints both sides' median and
      quartiles, flags a move of NEW's median past the metric's bound in
      its worse direction, and calls a pair unresolved when OLD's own
      spread (quartile distance over median) is wider than the bound,
      unless every NEW run beats every OLD run.  setup_s is never
      unresolved: its spread comes from set-up restarts and millisecond
      scales, so only its median is held to the bound.  Exits 1 when
      anything is flagged.

  python3 perfbench/run.py validate BENCHMARK_JSON FILE...
      Checks the result lines in the output of main.exe (- for standard
      input) against BENCHMARK_JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
OUT = os.path.join(HERE, "out")
RUN_TIMEOUT_S = 175


def child_env():
    """Temporary files of dune and the benchmark stay inside the checkout."""
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def load_spec(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path) as f:
        return json.load(f)


def build():
    """Build the benchmark from source; dune's output goes to stderr."""
    cmd = ["dune", "build", "--root", ROOT, "--cache=disabled", "--display=quiet",
           "perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850,
                              env=child_env())
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if done.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed")


def problems_of(spec, result, traced):
    """Why a result line does not match BENCHMARK.json ([] when it does)."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result must have exactly the keys correct, attempted, failed, metrics"]
    out = []
    if result["correct"] is not True:
        out.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        out.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        out.append("failed must be a whole number >= 0")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(want):
        out.append("metrics differ from BENCHMARK.json: missing %s, unexpected %s"
                   % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name in sorted(set(got) & set(want)):
        m = got[name]
        if m.get("unit") != want[name] or not isinstance(m.get("value"), (int, float)):
            out.append("%s: expected a number in %s, got %r" % (name, want[name], m))
    return out


def run_one(workload, seed, seconds, trace):
    """Run the built program once; returns (exit code, stdout lines)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        cmd += ["--trace-dir", OUT]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              env=child_env())
    except subprocess.TimeoutExpired:
        return 3, ["perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S)]
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def cmd_run(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("perfbench: unknown workload %r" % args.workload)
    build()
    code, lines = run_one(args.workload, args.seed, args.seconds, args.trace)
    result = parse_result(lines)
    bad = ["no result line"] if result is None else problems_of(spec, result, args.trace)
    print("\n".join(lines[:-1] if result is not None else lines))
    for b in bad:
        print("perfbench: " + b, file=sys.stderr)
    if result is not None:
        print(json.dumps(result))
    sys.exit(code or (1 if bad else 0))


def cmd_suite(args):
    spec = load_spec()
    build()
    status = 0
    for w in spec["workloads"]:
        code, lines = run_one(w["name"], args.seed, args.seconds, args.trace)
        result = parse_result(lines)
        print("\n".join(lines[:-1]), flush=True)
        bad = ["no result line"] if result is None else problems_of(spec, result, args.trace)
        if code != 0 or bad:
            print("perfbench: %s: %s" % (w["name"], "; ".join(bad) or "exit %d" % code))
            status = 1
        print("  ops %s, failed_ops %s" % (result and result.get("attempted"),
                                          result and result.get("failed")), flush=True)
        if args.out and result is not None:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": w["name"], "seed": args.seed,
                                    "trace": args.trace, "result": result}) + "\n")
    sys.exit(status)


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def cmd_compare(args):
    spec = load_spec()
    old, new = read_records(args.old), read_records(args.new)

    def values(records, workload, metric):
        return [r["result"]["metrics"][metric]["value"] for r in records
                if r["workload"] == workload and r["trace"] == 0
                and metric in r["result"]["metrics"]]

    flagged = 0
    print("%-14s %-18s %32s  %32s  %s" % ("workload", "metric", "old q1 / median / q3",
                                           "new q1 / median / q3", "verdict"))
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            a, b = values(old, w["name"], m["name"]), values(new, w["name"], m["name"])
            if not a or not b:
                continue
            (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
            lower = m["better"] == "lower"
            worse = (b2 - a2) / a2 if lower else (a2 - b2) / a2
            spread = (a3 - a1) / a2
            all_better = max(b) < min(a) if lower else min(b) > max(a)
            if worse > m["bound"]:
                verdict = "REGRESSION %s worse by %.1f%% (bound %.0f%%)" % (
                    m["name"], 100 * worse, 100 * m["bound"])
                flagged += 1
            elif spread > m["bound"] and not all_better and m["name"] != "setup_s":
                verdict = "unresolved: old spread %.1f%% > bound" % (100 * spread)
                flagged += 1
            else:
                verdict = "ok: %+.1f%% better, old spread %.1f%%" % (
                    0.0 - 100 * worse, 100 * spread)
            print("%-14s %-18s %10.4g %10.4g %10.4g  %10.4g %10.4g %10.4g  %s"
                  % (w["name"], m["name"], a1, a2, a3, b1, b2, b3, verdict))
    sys.exit(1 if flagged else 0)


def cmd_validate(args):
    """Lines that are not JSON objects (the human-readable report) are skipped."""
    spec = load_spec(args.spec)
    bad = seen = 0
    for path in args.files:
        for line in (sys.stdin if path == "-" else open(path)):
            if not line.startswith("{"):
                continue
            seen += 1
            result = json.loads(line)
            traced = set(result.get("metrics", {})) == {m["name"] for m in spec["per_layer"]}
            for p in problems_of(spec, result, traced):
                print("%s: %s" % (path, p))
                bad += 1
    if not seen:
        print("no result lines")
    sys.exit(1 if bad or not seen else 0)


def main(argv):
    if argv and argv[0] in ("suite", "compare", "validate"):
        sub = argv[0]
        p = argparse.ArgumentParser(prog="run.py " + sub)
        if sub == "suite":
            p.add_argument("--seed", type=int, default=1)
            p.add_argument("--seconds", type=int, default=load_spec()["run_seconds"])
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
            p.add_argument("--out")
            cmd_suite(p.parse_args(argv[1:]))
        elif sub == "compare":
            p.add_argument("old")
            p.add_argument("new")
            cmd_compare(p.parse_args(argv[1:]))
        else:
            p.add_argument("spec")
            p.add_argument("files", nargs="+")
            cmd_validate(p.parse_args(argv[1:]))
    else:
        p = argparse.ArgumentParser(prog="run.py")
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--seconds", type=int, required=True)
        p.add_argument("--trace", type=int, choices=(0, 1), required=True)
        cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    main(sys.argv[1:])
