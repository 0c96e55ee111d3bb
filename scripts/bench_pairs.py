"""Before/after benchmark pairs on one machine, written to BENCH_<label>.json.

    python3 scripts/bench_pairs.py --label NAME --parent REV \
        [--pairs spectral=10 suite=10 generator=10] \
        [--traced-seeds 1 3] [--change TEXT]

Run from anywhere inside a bpcalc checkout.  The parent side is the commit
REV, extracted with ``git archive`` into a temporary directory (under
$TMPDIR), so the repository itself is left untouched; the change side is
the working tree.  For each workload (every workload of BENCHMARK.json,
10 pairs each, unless ``--pairs`` says otherwise), seeds 1..N each give
one pair: one untraced ``perfbench/run.py`` run per side of
``run_seconds`` (from BENCHMARK.json), one run at a time, the parent first
on odd seeds and the change first on even ones.
Each run's end-to-end metrics (``setup_s``, ``pass_s``, ``peak_rss_mb``),
its ``correct``, ``attempted`` and ``failed`` are kept, and so are its
per-operation-kind medians (``build_s``, ``mapping_s``, ... from the
``detail`` of the run's record line), which show the layer a change
targets.  Every metric is summarised by the medians and quartiles of both
sides, the number of pairs in which the change is better and the relative
change of the medians; the per-kind ones under ``detail``.
Seeds given with ``--traced-seeds`` are also run once per side with
``--trace 1``, and their per-layer metrics are stored as they are.  The
machine record of the first run (nproc, Python, numpy, scipy, BLAS, thread
variables) is stored too, and the file is written to the repository root.
Under ``suite_csv`` each side's ``bpcalc run theorem_suite --format csv``
is recorded at the config seed and at ``--seed 7``: the md5 and line count
of the CSV and the exit code, with ``identical`` true where both sides
wrote the same bytes.
Under ``src_lines`` each side's line count of every ``*.py`` under
``src/bpcalc/`` is recorded, per file and in total, and a note gives the
two totals, so that a change quotes its size from this file.
Under ``suite_walls`` each side's per-experiment walls of the bundled suite
are recorded: the median of 15 in-process ``cli.run`` calls at the config
seed, with one BLAS thread, since at two threads the walls of identical
code swing by tens of percent.  Each ``moment-*`` experiment and
``factorization-direct`` gets a note, so that the file shows which
experiment a ``suite`` change moved.
Under ``spectra_walls`` each side's walls of ``joint_approximate_spectrum``
and of the five ``mapping_check`` parts are recorded on a stripped
``make_commuting_random(1, d, seed=0)`` at d = 96 and 192, with psi(A) of
``log1m`` precomputed and the tuple's splits formed by a first call: the
median of 15 calls, with one BLAS thread (``OPENBLAS_NUM_THREADS=1``),
since a median of 3 swung by tens of percent on identical code.  No
workload runs the mapping checks above d = 32, so this is the record of how
they scale with d.
Both sets of walls come from WALL_RUNS subprocesses per side, the sides
alternating as the pairs do (the parent first in odd runs), since one
subprocess per side read identical code +73% and -36% apart.  Each wall
is stored as the median and quartiles of its side's subprocesses, with the
runs themselves; the notes compare the medians.
Under ``bound_walls`` each side's ``make_tuple`` is timed on every
generator with a positive logarithmic norm (so a sampled bound) of the
``generator`` workload's stripped tuples at seeds 1-5: the sum over the
generators of the median of 3 calls, the number of ``expm`` calls of one
pass over them, and the bounds, in one subprocess per side with one BLAS
thread.  A generator that ``make_tuple`` rejects gets the bound null and
adds no wall.  ``max_bound_change_rel`` is the largest relative change of
a bound M_j kept by both sides, and ``rejected_by_one_side`` counts the
generators that only one side rejects.
"""

import argparse
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("pass_s", "setup_s", "peak_rss_mb")  # all "lower is better"
WALL_RUNS = 5   # subprocesses per side for suite_walls and spectra_walls


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def run_once(tree, workload, seed, seconds, trace):
    """The (record, result) JSON lines of one perfbench run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s in %s, seed %d, exited %d:\n%s" % (
            workload, tree, seed, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def suite_csv(trees):
    """md5, line count and exit code of the bundled suite's CSV on each
    side, at the config seed and at --seed 7."""
    out = {}
    for key, extra in (("config_seed", []), ("seed_7", ["--seed", "7"])):
        entry = {}
        for name, tree in trees.items():
            cmd = [sys.executable, "-m", "bpcalc.cli", "run", "theorem_suite",
                   "--format", "csv", *extra]
            proc = subprocess.run(cmd, cwd=tree, capture_output=True,
                                  env={**os.environ, "PYTHONPATH": str(tree / "src")})
            entry[name] = {"md5": hashlib.md5(proc.stdout).hexdigest(),
                           "lines": proc.stdout.count(b"\n"),
                           "exit": proc.returncode}
        entry["identical"] = entry["parent"]["md5"] == entry["change"]["md5"]
        out[key] = entry
    return out


def src_lines(trees):
    """Lines of each ``*.py`` under src/bpcalc on each side, and their sum."""
    out = {}
    for name, tree in trees.items():
        pkg = tree / "src" / "bpcalc"
        files = {str(p.relative_to(pkg)): p.read_bytes().count(b"\n")
                 for p in sorted(pkg.rglob("*.py"))}
        out[name] = {"total": sum(files.values()), "files": files}
    return out


def _child(tree, script, one_thread):
    """The JSON that ``script`` prints, run by ``python -c`` in ``tree``
    against its own ``src``, with one BLAS thread if ``one_thread``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    if one_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run([sys.executable, "-c", script], cwd=tree, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


SUITE_WALLS = """
import json, statistics
from importlib import resources
from bpcalc import cli
text = (resources.files("bpcalc") / "scenarios" / "theorem_suite.json").read_text()
cfg = cli.parse_config(text)
walls = {}
for _ in range(15):
    for e in cli.run(cfg).experiments:
        walls.setdefault(e.name, []).append(e.wall)
print(json.dumps({k: statistics.median(v) for k, v in walls.items()}))
"""


def _alternating(trees, script):
    """The JSON of ``script`` from WALL_RUNS subprocesses per side, each with
    one BLAS thread, the sides alternating: the parent first in odd runs."""
    runs = {"parent": [], "change": []}
    for k in range(1, WALL_RUNS + 1):
        for name in (("parent", "change") if k % 2 else ("change", "parent")):
            runs[name].append(_child(trees[name], script, True))
    return runs


def suite_walls(trees):
    """Wall in seconds of each experiment of the bundled suite: in each
    subprocess the median of 15 in-process ``cli.run`` calls at the config
    seed, and per side the median and quartiles of its subprocesses."""
    return {name: {exp: _quartiles([run[exp] for run in runs], 5)
                   for exp in runs[0]}
            for name, runs in _alternating(trees, SUITE_WALLS).items()}


SPECTRA_WALLS = """
import json, statistics, time
from bpcalc.bernstein import log1m
from bpcalc.calculus import apply_psi
from bpcalc.semigroup import make_commuting_random, make_tuple
from bpcalc.spectra import joint_approximate_spectrum, mapping_check
psi = log1m()
out = {}
for d in (96, 192):
    A = make_tuple(make_commuting_random(1, d, seed=0).generators)
    F = apply_psi(psi, A)
    ops = {"joint_approximate_spectrum": lambda: joint_approximate_spectrum(A)}
    for part in range(1, 6):
        ops["mapping_part%d" % part] = (
            lambda part=part: mapping_check(psi, A, part, operator=F))
    for name, op in ops.items():
        op()
        walls = []
        for _ in range(15):
            start = time.perf_counter()
            op()
            walls.append(time.perf_counter() - start)
        out.setdefault(name, {})["d%d" % d] = statistics.median(walls)
print(json.dumps(out))
"""


def spectra_walls(trees):
    """Wall in seconds of the joint approximate spectrum and of each mapping
    part at d = 96 and 192: in each subprocess the median of 15 calls, and
    per side the median and quartiles of its subprocesses."""
    return {name: {op: {d: _quartiles([run[op][d] for run in runs], 5)
                        for d in by_d}
                   for op, by_d in runs[0].items()}
            for name, runs in _alternating(trees, SPECTRA_WALLS).items()}


BOUND_WALLS = """
import json, statistics, sys, time
sys.path.insert(0, "perfbench")
from workloads import (INSTANCES, SPECTRAL_BOX, SPECTRAL_MAX_COND,
                       STRIPPED_TUPLES)
from bpcalc import semigroup
gens = [g for seed in range(1, 6) for i in range(INSTANCES["generator"])
        for k, (_, n, d) in enumerate(STRIPPED_TUPLES)
        for g in semigroup.make_commuting_random(
            n, d, seed=[seed, i, 100 + k], spectral_box=SPECTRAL_BOX,
            max_cond=SPECTRAL_MAX_COND).generators
        if semigroup.log_norm(g) > 0.0]
calls = []
real = semigroup.expm
semigroup.expm = lambda *a, **kw: calls.append(1) or real(*a, **kw)
bounds = []
for g in gens:
    try:
        bounds.append(semigroup.make_tuple([g]).bounds[0])
    except ValueError:
        bounds.append(None)
expm_calls = len(calls)
wall = 0.0
for g, b in zip(gens, bounds):
    if b is None:
        continue
    walls = []
    for _ in range(3):
        start = time.perf_counter()
        semigroup.make_tuple([g])
        walls.append(time.perf_counter() - start)
    wall += statistics.median(walls)
print(json.dumps({"generators": len(gens), "wall_s": wall,
                  "expm_calls": expm_calls, "bounds": bounds}))
"""


def bound_walls(trees):
    """Wall, expm calls and bounds of make_tuple on the sampled stripped
    generators of the generator workload, one subprocess a side with one
    BLAS thread.  A generator that make_tuple rejects has bound None and
    adds no wall."""
    out = {name: _child(tree, BOUND_WALLS, True)
           for name, tree in trees.items()}
    for side in out.values():
        side["wall_s"] = round(side["wall_s"], 5)
    pairs = list(zip(out["parent"]["bounds"], out["change"]["bounds"]))
    out["rejected_by_one_side"] = sum((p is None) != (c is None)
                                      for p, c in pairs)
    out["max_bound_change_rel"] = max(
        [abs(c / p - 1.0) for p, c in pairs
         if p is not None and c is not None], default=0.0)
    return out


def _quartiles(runs, digits):
    """Median, quartiles and the runs themselves, rounded to ``digits``."""
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(med, digits), "q1": round(q1, digits),
            "q3": round(q3, digits), "runs": [round(v, digits) for v in runs]}


def summary(parent, change):
    """Medians, quartiles and pairwise wins of one metric over the pairs."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {"parent": _quartiles(parent, 4), "change": _quartiles(change, 4),
            "change_better_pairs": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(parent),
            "median_change_rel": round(c_med / p_med - 1.0, 4)}


def note(workload, metric, s):
    p, c = s["parent"], s["change"]
    return ("%s %s: change better in %d of %d pairs; medians %.4g -> %.4g "
            "(%+.1f%%), parent quartile spread %.4g" % (
                workload, metric, s["change_better_pairs"], s["pairs"],
                p["median"], c["median"], 100.0 * s["median_change_rel"],
                p["q3"] - p["q1"]))


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", required=True,
                        help="the commit the working tree is compared with")
    parser.add_argument("--pairs", nargs="+",
                        default=["%s=10" % w["name"] for w in bench["workloads"]],
                        help="workload=N: seeds 1..N, one pair each")
    parser.add_argument("--traced-seeds", type=int, nargs="*", default=[])
    parser.add_argument("--change", default="",
                        help="one line saying what the change does")
    args = parser.parse_args(argv)
    pairs = {}
    for item in args.pairs:
        workload, _, count = item.partition("=")
        pairs[workload] = int(count)

    parent_rev = git("rev-parse", "--short", args.parent).decode().strip()
    out = {"label": args.label, "change": args.change,
           "parent_commit": parent_rev,
           "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                      "--seconds %g [--trace 1]" % seconds,
           "protocol": "one parent and one change run per seed, seeds 1..N, "
                       "one run at a time, the parent first on odd seeds; "
                       "the parent from `git archive %s`, the change from "
                       "the working tree" % parent_rev,
           "machine": None, "run_seconds": seconds, "src_lines": None,
           "suite_csv": None,
           "suite_walls": None, "spectra_walls": None, "bound_walls": None,
           "workloads": {}, "traced": {}, "notes": []}

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(git("archive", parent_rev))) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"parent": Path(tmp), "change": ROOT}
        out["src_lines"] = lines = src_lines(trees)
        out["notes"].append("Python under src/bpcalc: %d -> %d lines" % (
            lines["parent"]["total"], lines["change"]["total"]))
        out["suite_csv"] = suite_csv(trees)
        for key, entry in out["suite_csv"].items():
            out["notes"].append("theorem_suite csv at %s: %s (md5 %s -> %s)" % (
                key, "identical" if entry["identical"] else "DIFFERS",
                entry["parent"]["md5"], entry["change"]["md5"]))
        out["suite_walls"] = walls = suite_walls(trees)
        for exp in sorted(walls["parent"]):
            if (exp.startswith("moment-") or exp == "factorization-direct") \
                    and exp in walls["change"]:
                p = walls["parent"][exp]["median"]
                c = walls["change"][exp]["median"]
                out["notes"].append(
                    "suite wall of %s (median over %d subprocesses of the "
                    "median of 15 runs, one BLAS thread): %.4g -> %.4g s "
                    "(%+.1f%%)" % (exp, WALL_RUNS, p, c,
                                   100.0 * (c / p - 1.0)))
        out["spectra_walls"] = walls = spectra_walls(trees)
        for op, by_d in walls["parent"].items():
            for d, p in by_d.items():
                p, c = p["median"], walls["change"][op][d]["median"]
                out["notes"].append(
                    "spectra wall of %s at %s (median over %d subprocesses of "
                    "the median of 15, one BLAS thread): %.4g -> %.4g s "
                    "(%+.1f%%)" % (op, d, WALL_RUNS, p, c,
                                   100.0 * (c / p - 1.0)))
        out["bound_walls"] = walls = bound_walls(trees)
        p, c = walls["parent"], walls["change"]
        out["notes"].append(
            "make_tuple on the %d sampled stripped generators of generator, "
            "seeds 1-5 (median of 3 each, one BLAS thread): %.4g -> %.4g s "
            "(%+.1f%%), expm calls %d -> %d, largest relative change of M_j "
            "%.3g, rejected by one side only %d"
            % (c["generators"], p["wall_s"], c["wall_s"],
               100.0 * (c["wall_s"] / p["wall_s"] - 1.0),
               p["expm_calls"], c["expm_calls"],
               walls["max_bound_change_rel"], walls["rejected_by_one_side"]))

        for workload, count in pairs.items():
            runs = {"parent": [], "change": []}
            details = {"parent": [], "change": []}
            for seed in range(1, count + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for name in order:
                    record, result = run_once(trees[name], workload, seed,
                                              seconds, 0)
                    out["machine"] = out["machine"] or record["machine"]
                    runs[name].append(result)
                    details[name].append({k: v["value"]
                                          for k, v in record["detail"].items()})
                    print("%s seed %d %s: %s" % (workload, seed, name, {
                        k: round(v["value"], 4)
                        for k, v in result["metrics"].items()}), file=sys.stderr)
            entry = {"seeds": list(range(1, count + 1)),
                     "correct": all(r["correct"] for side in runs.values()
                                    for r in side)}
            for key in ("failed", "attempted"):
                entry[key] = {name: sum(r[key] for r in side)
                              for name, side in runs.items()}
            for metric in END_TO_END:
                entry[metric] = summary(
                    *[[r["metrics"][metric]["value"] for r in runs[name]]
                      for name in ("parent", "change")])
                out["notes"].append(note(workload, metric, entry[metric]))
            # op kinds timed in every run of both sides, in a fixed order
            kinds = sorted(set.intersection(*(set(d) for side in details.values()
                                              for d in side)))
            entry["detail"] = {}
            for kind in kinds:
                entry["detail"][kind] = summary(
                    *[[d[kind] for d in details[name]]
                      for name in ("parent", "change")])
                out["notes"].append(note(workload, kind, entry["detail"][kind]))
            out["workloads"][workload] = entry

            for seed in args.traced_seeds:
                traced = out["traced"].setdefault(workload, {})
                traced[str(seed)] = {}
                for name in ("parent", "change"):
                    _, result = run_once(trees[name], workload, seed,
                                         seconds, 1)
                    traced[str(seed)][name] = {
                        "correct": result["correct"], "failed": result["failed"],
                        **{k: v["value"] for k, v in result["metrics"].items()}}

    path = ROOT / ("BENCH_%s.json" % args.label)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
