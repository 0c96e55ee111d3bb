"""Steadiness of the benchmark: repeated runs against the bounds.

    python3 perfbench/steady.py [--workloads suite spectral generator]

Runs every workload once for each of the seeds 1-10, untraced, for the
``run_seconds`` of BENCHMARK.json, and reports for each end-to-end metric
the median, the quartiles and their spread (q3 - q1) / median against its
bound in BENCHMARK.json; every spread must stay within its bound, and the
aim is one under a third of it.  It also checks that the share of failed
operations is the same in every run, and runs seed 1 traced twice to
confirm that every count of the per-layer metrics repeats exactly.  The
last line of output is a JSON summary.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s" % (
            workload, seed, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    summary, steady = {}, True
    for wl in args.workloads:
        values, details, shares, correct = {}, {}, set(), True
        for seed in SEEDS:
            info, res = one_run(wl, seed, seconds, 0)
            correct &= res["correct"]
            shares.add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, m in info["detail"].items():
                details.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s setup samples %s" % (wl, seed, " ".join(
                "%s=%.4g" % (k, m["value"]) for k, m in res["metrics"].items()),
                " ".join("%.3f" % v for v in info["setup_samples_s"])),
                flush=True)
        rows = {}
        for name, vals in values.items():
            s = spread(vals)
            s["bound"] = bounds[name]
            s["within_third"] = s["spread"] <= bounds[name] / 3.0
            steady &= s["spread"] <= bounds[name]
            rows[name] = s
        detail = {name: spread(vals) for name, vals in details.items()}
        _, first = one_run(wl, SEEDS[0], seconds, 1)
        _, second = one_run(wl, SEEDS[0], seconds, 1)
        counts = [k for k, u in units.items() if u == "count"]
        differing = [k for k in counts
                     if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        correct &= first["correct"] and second["correct"]
        steady &= correct and len(shares) == 1 and not differing
        summary[wl] = {"metrics": rows, "detail": detail, "correct": correct,
                       "failure_shares": sorted(shares),
                       "counts_differing": differing,
                       "counts": {k: first["metrics"][k]["value"] for k in counts}}
        for name, s in rows.items():
            print("%-10s %-12s median %.5g  q1 %.5g  q3 %.5g  spread %.4f  "
                  "bound %.2f  %s" % (wl, name, s["median"], s["q1"], s["q3"],
                                      s["spread"], s["bound"],
                                      "ok" if s["within_third"] else "WIDE"))
        for name, s in detail.items():
            print("%-10s %-12s median %.5g  spread %.4f  (no bound)"
                  % (wl, name, s["median"], s["spread"]))
        print("%-10s correct %s, failure shares %s, counts repeat %s"
              % (wl, correct, sorted(shares), not differing), flush=True)
    print(json.dumps({"steady": steady, "seeds": list(SEEDS),
                      "seconds": seconds, "workloads": summary}))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
