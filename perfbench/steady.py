#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs every workload of BENCHMARK.json once for each of the seeds 1 to 10,
then reports for each end-to-end metric the median, the quartiles and the
spread (distance between the quartiles as a share of the median) next to
the metric's bound.

    python3 perfbench/steady.py --out perfbench/BASELINE.json
    python3 perfbench/steady.py --baseline perfbench/BASELINE.json

Run it from the repository root. --out writes the medians and quartiles to
a JSON file; --baseline compares each median with the one stored in such a
file. It exits 1 if any run reports a failed check, if any spread exceeds
its metric's bound, or if any median is worse than the baseline's by more
than the bound.
"""
import argparse
import json
import platform
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def run(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def worse(med, base, better):
    """Share by which med is worse than base (negative when better)."""
    if base == 0:
        return 0.0 if med == base else float("inf")
    return (base - med) / base if better == "higher" else (med - base) / base


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", help="write medians and quartiles here")
    ap.add_argument("--baseline", help="compare medians with this file")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base = None
    if a.baseline:
        with open(a.baseline) as f:
            base = json.load(f)["workloads"]

    report = {"machine": f"{platform.machine()} {platform.processor() or ''}".strip(),
              "run_seconds": bench["run_seconds"], "seeds": len(SEEDS), "workloads": {}}
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        values, failed = {}, 0
        for seed in SEEDS:
            r = run(bench["command"], name, seed, bench["run_seconds"])
            failed += r["failed"]
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        rows = {}
        print(f"{name}: {failed} failed checks")
        ok = ok and failed == 0
        for k, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            bound = metrics[k]["bound"]
            rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            flags = []
            if spread > bound:
                flags.append("SPREAD OVER BOUND")
                ok = False
            elif spread > bound / 3:
                flags.append("spread over a third of the bound")
            line = (f"  {k:22s} median={med:<14.6g} q1={q1:<14.6g} q3={q3:<14.6g} "
                    f"spread={spread:.4f} bound={bound}")
            if base is not None:
                d = worse(med, base[name][k]["median"], metrics[k]["better"])
                line += f" vs-baseline={d:+.4f}"
                if d > bound:
                    flags.append("WORSE THAN BASELINE BY MORE THAN BOUND")
                    ok = False
            print(line + "".join("  " + f for f in flags))
        report["workloads"][name] = rows
    if a.out:
        with open(a.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
