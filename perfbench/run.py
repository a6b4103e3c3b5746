#!/usr/bin/env python3
"""Build and run the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload analyze|serve|edit --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout.  It builds perfbench/main.exe and
bin/jeddd_main.exe in release mode under .bench_build/, then runs one
workload; the last line of its output is the result JSON.  --all runs
every workload untraced and traced and prints every metric by name with
its unit, failing if any correctness check fails.  Every run is pinned to
one CPU (see pin_to_one_cpu).  Results, spans and Chrome traces land in
.bench_build/perfbench/.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BUILD = os.path.abspath(os.path.join(".bench_build", "dune"))
WORK = os.path.join(".bench_build", "perfbench")
MAIN = os.path.join(BUILD, "default", "perfbench", "main.exe")
JEDDD = os.path.join(BUILD, "default", "bin", "jeddd_main.exe")
RUN_TIMEOUT_S = 175

# Every workload runs on one CPU: the benchmark process, its domains and
# its jeddd children.  Spread over two virtual CPUs, each hand-off between
# processes or domains waits for the hypervisor to wake a halted CPU, and
# on a shared host that wait, not the program, sets the pace: serve ran at
# 2.3k against 6.2k req/s (28 % against 3 % stolen time) minutes apart, and
# analyze's two-domain pipeline took 17-30 s across ten runs as stolen time
# went from 1 % to 16 %.  On one CPU the default job count is 1.
def pin_to_one_cpu():
    """Restrict this process (and what it starts) to its last allowed CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD, "./perfbench/main.exe", "./bin/jeddd_main.exe"]
    try:
        rc = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return False
    return rc == 0


def commit_id():
    """The git commit, or a digest of the sources when not in a git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune", ".py")):
                    path = os.path.join(root, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def run_one(workload, seed, seconds, trace, commit, capture=False):
    cmd = [MAIN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--jeddd", JEDDD, "--work", WORK, "--commit", commit]
    # its own process group, so a timeout also stops the jeddd children
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            start_new_session=True,
                            preexec_fn=pin_to_one_cpu)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    return proc.returncode, out.decode() if capture else None


def run_all(seed, seconds, commit):
    ok = True
    rows = []
    for workload in ("analyze", "serve", "edit"):
        for trace in (0, 1):
            rc, out = run_one(workload, seed, seconds, trace, commit, capture=True)
            lines = (out or "").splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"perfbench: {workload} trace={trace} printed no result",
                      file=sys.stderr)
                ok = False
                continue
            ok = ok and rc == 0 and result["correct"]
            kind = "per-layer" if trace else "end-to-end"
            for name, m in result["metrics"].items():
                rows.append((workload, kind, name, m["value"], m["unit"]))
            rows.append((workload, kind, "fail_frac",
                         result["failed"] / result["attempted"], "ratio"))
    print("\nworkload  kind        metric                               value unit")
    for w, k, n, v, u in rows:
        print(f"{w:9} {k:11} {n:34} {v:14.4f} {u}")
    print("all correct" if ok else "CORRECTNESS FAILURE")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["analyze", "serve", "edit"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload or --all")
    os.makedirs(WORK, exist_ok=True)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    commit = commit_id()
    if args.all:
        return run_all(args.seed, args.seconds, commit)
    rc, _ = run_one(args.workload, args.seed, args.seconds, args.trace, commit)
    return rc


if __name__ == "__main__":
    sys.exit(main())
