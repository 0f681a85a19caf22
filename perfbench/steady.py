#!/usr/bin/env python3
"""Steadiness check of the benchmark (see perfbench/README.md).

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workload NAME ...]

Runs every chosen workload --runs times per set, each run with its own
seed, through perfbench/run.py with BENCHMARK.json's run_seconds. The sets
are interleaved run by run, so a slow drift of the host's speed lands on
every set alike instead of between them. For every
end-to-end metric and workload it prints the median and the spread of each
set (first-to-third-quartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles) against the metric's
bound; setup_s times one cold set-up per run, so its spread is printed but
not held to the bound. With two sets it also says whether the second median
is within the bound of the first, and whether the share of failed operations
is the same.
Raw results go to <build dir>/steady/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import ROOT, build_root

SEED_BASE = 1000  # set s, run i uses seed SEED_BASE + 1000 * s + i


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    workloads = args.workload or names
    metrics = spec["end_to_end"]

    out_dir = os.path.join(build_root(), "steady")
    os.makedirs(out_dir, exist_ok=True)
    raw_path = os.path.join(out_dir, time.strftime("%Y%m%d-%H%M%S") + ".json")
    raw = []
    for i in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                seed = SEED_BASE + 1000 * s + i
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                     "--workload", w, "--seed", str(seed), "--seconds",
                     str(spec["run_seconds"]), "--trace", "0"],
                    cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True)
                elapsed = time.perf_counter() - start
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 else None
                raw.append({"set": s, "workload": w, "seed": seed,
                            "rc": proc.returncode, "elapsed_s": elapsed,
                            "result": result})
                with open(raw_path, "w") as f:
                    json.dump(raw, f, indent=1)
                print(f"set {s} {w} seed {seed}: rc {proc.returncode}, "
                      f"{elapsed:.1f} s", file=sys.stderr, flush=True)

    verdict = True
    for w in workloads:
        runs = [[r for r in raw if r["workload"] == w and r["set"] == s]
                for s in range(args.sets)]
        print(f"\n{w}: max run {max(r['elapsed_s'] for x in runs for r in x):.1f} s")
        if any(r["result"] is None or not r["result"]["correct"]
               for x in runs for r in x):
            print("  a run failed or was incorrect")
            verdict = False
            continue
        shares = [{r["result"]["failed"] / r["result"]["attempted"] for r in x}
                  for x in runs]
        print(f"  failed share per set: {shares}")
        if len(set().union(*shares)) != 1:
            verdict = False
        for m in metrics:
            sets = [[r["result"]["metrics"][m["name"]]["value"] for r in x]
                    for x in runs]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            bound = m["bound"]
            line = f"  {m['name']:<12} " + "  ".join(
                f"median {med:10.4f} spread {sp:6.3f}"
                for med, sp in zip(medians, spreads))
            if m["name"] == "setup_s":
                line += " (cold, spread not gated)"
                ok = True
            else:
                ok = max(spreads) <= bound
            if args.sets == 2:
                sign = 1 if m["better"] == "lower" else -1
                drift = sign * (medians[1] - medians[0]) / medians[0]
                ok = ok and drift <= bound
                line += f"  drift {drift:+.3f}"
            line += f"  bound {bound} (third {bound / 3:.3f}) " + \
                ("ok" if ok else "OUT")
            verdict = verdict and ok
            print(line)
    print(f"\nraw results: {raw_path}")
    print("steady" if verdict else "NOT steady")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
