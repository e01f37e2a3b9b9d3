#!/usr/bin/env python3
"""Build the watcher benchmark from source, then run it.

One workload, in this process (the form BENCHMARK.json names):

    python3 xcwbench/run.py --workload W --seed N --seconds S --trace 0|1

Standard output is xcwbench.exe's: one `<workload> <metric> <value>
<unit>` line per metric, then one JSON object as the last line.  The
exit code is 0 iff every correctness check held.

Every workload in turn, each in a fresh process:

    python3 xcwbench/run.py --workload all [--seed N] [--seconds S]
        [--trace 0|1] [--smoke] [--jsonl TAG]

prints the same metric lines for every workload, writes
BENCH_suite.json (not with --smoke), and with --jsonl prints one
trajectory row per workload, tagged with TAG, ready to append to
xcwbench/trajectory.jsonl.  The traced suite also prints
store.commit_ms: stream-durable's mean poll minus stream-nomad's, same
seed.  Exits non-zero if any workload failed a check.

Run from anywhere; paths are taken relative to the checkout that holds
this file.  The dune build cache is disabled so nothing is written
outside the checkout.
"""
import json
import os
import subprocess
import sys

WORKLOADS = ["batch-ronin", "stream-nomad", "stream-durable", "fleet-mixed"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINARY = os.path.join(ROOT, "_build", "default", "xcwbench", "xcwbench.exe")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./xcwbench/xcwbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("run.py: build failed")


def usage_error(msg):
    sys.stderr.write(f"run.py: {msg}\n")
    sys.exit(2)


def option(args, flag, default):
    if flag in args:
        i = args.index(flag)
        if i + 1 >= len(args):
            usage_error(f"{flag} needs a value")
        value = args[i + 1]
        del args[i:i + 2]
        return value
    return default


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def suite(args):
    seed = option(args, "--seed", "42")
    seconds = option(args, "--seconds", "30")
    trace = option(args, "--trace", "0")
    tag = option(args, "--jsonl", None)
    smoke = "--smoke" in args
    if smoke:
        args.remove("--smoke")
    if args:
        usage_error(f"unknown arguments {args}")
    results, ok = {}, True
    for w in WORKLOADS:
        cmd = [BINARY, "--workload", w, "--seed", seed, "--seconds", seconds,
               "--trace", trace] + (["--smoke"] if smoke else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        ok = ok and done.returncode == 0
        try:
            results[w] = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.stderr.write(done.stderr)
            ok = False
    if trace == "1" and {"stream-nomad", "stream-durable"} <= results.keys():
        poll = "monitor.poll_ms_per_op"
        commit = (results["stream-durable"]["metrics"][poll]["value"]
                  - results["stream-nomad"]["metrics"][poll]["value"])
        print(f"stream-durable store.commit_ms {commit:.6g} ms")
    if not smoke:
        with open(os.path.join(ROOT, "BENCH_suite.json"), "w") as f:
            json.dump({"seed": int(seed), "seconds": float(seconds),
                       "trace": trace == "1", "workloads": results}, f)
            f.write("\n")
    if tag is not None:
        rev, cores = git_rev(), os.cpu_count()
        for w, res in results.items():
            print(json.dumps({
                "rev": rev, "pr": tag, "workload": w, "seed": int(seed),
                "host_cores": cores,
                "metrics": {k: v["value"] for k, v in res["metrics"].items()},
            }))
    sys.exit(0 if ok else 1)


def main():
    args = sys.argv[1:]
    workload = option(args, "--workload", None)
    build()
    if workload == "all":
        suite(args)
    else:
        if workload is not None:
            args = ["--workload", workload] + args
        os.chdir(ROOT)
        os.execv(BINARY, [BINARY] + args)


if __name__ == "__main__":
    main()
