#!/usr/bin/env python3
"""fruitbench: build the benchmark in the release profile and run it.

Run from anywhere inside a source checkout:

  python3 fruitbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One workload run. The last line of standard output is the result
      object {"correct", "attempted", "failed", "metrics"}.
  python3 fruitbench/run.py --all [--seed N] [--seconds S]
      Every workload with tracing off; prints the end-to-end metrics and
      failed_frac of each, by name and with units.
  python3 fruitbench/run.py --self-test
      Every workload once at tiny size, both modes; checks the result
      objects against BENCHMARK.json and that a tampered chain is caught.

Everything the benchmark builds or writes goes under .bench_build/ in the
checkout; the build runs with dune's shared cache disabled.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
DUNE_BUILD = os.path.join(BUILD, "dune")
WORKDIR = os.path.join(BUILD, "fruitbench")
EXE = os.path.join(DUNE_BUILD, "default", "fruitbench", "main.exe")
WORKLOADS = ["cli-default", "selfish-n200", "storm-gossip", "sparse-100k"]
PROFILE = "release"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("fruitbench: " + msg, file=sys.stderr)
    sys.exit(code)


def env():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    e = dict(os.environ)
    e.update(
        DUNE_CACHE="disabled",
        TMPDIR=tmp,
        XDG_CACHE_HOME=os.path.join(BUILD, "xdg-cache"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "xdg-config"),
    )
    return e


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: the benchmark needs the repository's sources" % ROOT)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    cmd = [dune, "build", "--root", ROOT, "--build-dir", DUNE_BUILD,
           "--profile", PROFILE, "./fruitbench/main.exe"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env(), stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if p.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(p.stdout)
        fail("build failed")


def run_exe(args):
    """Runs the benchmark executable; returns (stdout lines, result object)."""
    os.makedirs(WORKDIR, exist_ok=True)
    cmd = [EXE, "--workdir", WORKDIR, "--profile", PROFILE] + args
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env(), stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out: " + " ".join(args))
    if p.returncode != 0:
        sys.stdout.write(p.stdout)
        fail("benchmark exited with %d" % p.returncode, code=p.returncode or 2)
    lines = p.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(p.stdout)
        fail("no result object on the last line")
    return lines, result


def one(a):
    lines, _ = run_exe(["--workload", a.workload, "--seed", str(a.seed),
                        "--seconds", str(a.seconds), "--trace", str(a.trace)])
    print("\n".join(lines), flush=True)


def all_workloads(a):
    rows = []
    for w in WORKLOADS:
        _, r = run_exe(["--workload", w, "--seed", str(a.seed), "--seconds", str(a.seconds),
                        "--trace", "0"])
        rows.append((w, r))
    for w, r in rows:
        print(w)
        for name, m in r["metrics"].items():
            print("  %-16s %.6g %s" % (name, m["value"], m["unit"]))
        print("  %-16s %.6g ratio" % ("failed_frac", r["failed"] / r["attempted"]))
    if any(r["failed"] for _, r in rows):
        sys.exit(1)


def context_digest(lines):
    for line in lines:
        if line.startswith("context: "):
            return json.loads(line[len("context: "):])["digest"]
    return None


def self_test(_a):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []

    def expect(ok, msg):
        if not ok:
            problems.append(msg)

    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    expect([w["name"] for w in bench["workloads"]] == WORKLOADS, "workload list differs")
    for w in WORKLOADS:
        digests = []
        for trace in (0, 1):
            lines, r = run_exe(["--workload", w, "--seed", "3", "--seconds", "0.5",
                                "--trace", str(trace), "--size", "tiny"])
            tag = "%s --trace %d" % (w, trace)
            expect(set(r) == {"correct", "attempted", "failed", "metrics"}, tag + ": result keys")
            expect(r.get("correct") is True and r.get("failed") == 0, tag + ": checks failed")
            expect(r.get("attempted", 0) >= 1, tag + ": nothing attempted")
            got = {k: v.get("unit") for k, v in r.get("metrics", {}).items()}
            expect(got == wanted[trace], tag + ": metric names or units differ from BENCHMARK.json")
            expect(all(isinstance(v.get("value"), (int, float)) and math.isfinite(v["value"])
                       for v in r.get("metrics", {}).values()), tag + ": non-numeric value")
            expect(any(l.startswith("metric failed_frac") for l in lines), tag + ": no failed_frac")
            for name, m in r.get("metrics", {}).items():
                print("%-14s %-32s %.6g %s" % (w, name, m["value"], m["unit"]))
            digests.append(context_digest(lines))
        expect(digests[0] is not None and digests[0] == digests[1],
               w + ": two invocations of one seed disagree on the run digest")
        _, r = run_exe(["--workload", w, "--seed", "3", "--seconds", "0.2", "--trace", "0",
                        "--size", "tiny", "--tamper"])
        expect(r["correct"] is False and r["failed"] >= 1,
               w + ": a chain with a flipped fruit-set digest was not reported as failed")
    for p in problems:
        print("self-test: " + p)
    print("self-test: %s" % ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description="build and run the fruitbench benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not (a.all or a.self_test or a.workload):
        ap.error("give --workload, --all or --self-test")
    build()
    if a.self_test:
        self_test(a)
    elif a.all:
        all_workloads(a)
    else:
        one(a)


if __name__ == "__main__":
    main()
