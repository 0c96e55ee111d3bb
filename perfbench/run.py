"""bpcalc benchmark: one run of one workload.

    python3 perfbench/run.py --workload suite|spectral|generator \
        --seed N --seconds S --trace 0|1

Run from the root of a bpcalc checkout; the package is imported from its
``src`` directory.  The run sets up (imports bpcalc, makes the inputs from
the seed, makes one warm-up call), then runs whole passes over the
workload's operations in a closed loop, one operation after another, until
S seconds have gone by.  Each output is checked after the pass, outside
every timing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is a JSON record of the machine, the per-operation medians
and any problems found.  A traced run writes its spans to
``.perfbench/spans-<workload>-<seed>.json``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# set-up is timed in the run itself and in this many fresh child processes,
# one after each pass, so that the samples span the whole run; setup_s is
# their median
SETUP_PROBES = 8
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# per-operation medians printed beside the end-to-end metrics, by op kind
DETAIL = {"scenario": "scenario_s", "build": "build_s", "psi": "psi_s",
          "subordinate": "subordinate_s", "factorize": "factorize_s",
          "mapping": "mapping_s"}


def machine_info():
    import numpy
    import scipy
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def setup(workload, seed, small=False):
    """Import bpcalc, make the inputs, make one warm-up call."""
    import bpcalc
    import bpcalc.cli  # noqa: F401  (the suite workload calls bp.cli)
    import workloads
    if not Path(bpcalc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError("bpcalc imported from %s, not from %s"
                           % (bpcalc.__file__, SRC))
    wl = workloads.WORKLOADS[workload](bpcalc, seed, small=small)
    wl.warmup()
    return wl


def probe_setup(args):
    """Set-up time of a fresh process, measured by a child run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "1",
           "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(wl, tracer=None):
    """One pass: every operation timed, then every output checked."""
    times, outputs, failures = [], {}, []
    if tracer is not None:
        tracer.reset()
        tracer.enabled = True
    for op in wl.ops:
        if tracer is not None:
            tracer.begin_op(op.label)
        t0 = time.perf_counter()
        try:
            out = op.call(outputs)
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append("%s: %s: %s" % (op.label, type(exc).__name__, exc))
            continue
        times.append((op.kind, time.perf_counter() - t0))
        outputs[op.label] = out
    layer = None
    if tracer is not None:
        tracer.enabled = False
        wall = sum(o.get("wall_sum", 0.0) for o in outputs.values()
                   if isinstance(o, dict))
        layer = tracer.window_metrics(wall)
    return times, outputs, failures, layer


def check_pass(wl, outputs, cache):
    problems = []
    for op in wl.ops:
        if op.label in outputs:
            problems += op.check(outputs[op.label], outputs, cache)
    return problems


def measure(wl, seconds, tracer=None, cache=None, after_pass=None):
    """Whole passes until their timed operations add up to ``seconds``.

    Check time is left out of the budget as well as out of every timing, so
    the first pass, which computes the references, costs no passes.
    ``after_pass`` is called after each pass's checks, also untimed.
    """
    passes = []
    while sum(pass_seconds(passes)) < seconds:
        times, outputs, failures, layer = run_pass(wl, tracer)
        c0 = time.perf_counter()
        problems = check_pass(wl, outputs, cache)
        passes.append({"times": times, "failures": failures, "layer": layer,
                       "problems": problems,
                       "check_s": time.perf_counter() - c0})
        if after_pass is not None:
            after_pass()
    return passes


def pass_seconds(passes):
    return [sum(t for _, t in p["times"]) for p in passes]


def layer_metrics(traced, untraced):
    """Counts from the first traced pass, times as medians over passes.

    Returns the result-line metrics, the detail-only ones, and whether
    every count repeated exactly.
    """
    from tracer import DETAIL_ONLY, UNITS
    first = traced[0]["layer"]
    metrics, detail = {}, {}
    for name, value in first.items():
        if UNITS[name] == "s":
            value = statistics.median(p["layer"][name] for p in traced)
        target = detail if name in DETAIL_ONLY else metrics
        target[name] = {"value": value, "unit": UNITS[name]}
    every = traced + untraced
    metrics["bench.check_s"] = {
        "value": sum(p["check_s"] for p in every) / len(every), "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(pass_seconds(traced))
        - statistics.median(pass_seconds(untraced)), "unit": "s"}
    repeat = all(p["layer"][k] == first[k] for p in traced for k in first
                 if UNITS[k] == "count")
    return metrics, detail, repeat


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite", "spectral", "generator"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, and print the set-up time")
    args = parser.parse_args(argv)

    if not (SRC / "bpcalc" / "__init__.py").is_file():
        print("no bpcalc sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    wl = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cache = {}
    if args.trace:
        from tracer import SPAN_FIELDS, Tracer
        # the first half untraced, for the tracing overhead; the second half
        # traced
        untraced = measure(wl, args.seconds / 2.0, cache=cache)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(wl, args.seconds / 2.0, tracer=tracer, cache=cache)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        metrics, layer_detail, counts_repeat = layer_metrics(traced, untraced)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / ("spans-%s-%d.json" % (args.workload, args.seed))
        spans_path.write_text(json.dumps(
            {"fields": list(SPAN_FIELDS), "spans": tracer.span_records()}))
        setups = [setup_s]
    else:
        setups = [setup_s]

        def probe():
            if len(setups) <= SETUP_PROBES:
                setups.append(probe_setup(args))

        passes = measure(wl, args.seconds, cache=cache, after_pass=probe)
        while len(setups) <= SETUP_PROBES:
            probe()
        layer_detail, counts_repeat = None, None
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": statistics.median(pass_seconds(passes)), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }

    problems = [q for p in passes for q in p["problems"]]
    failures = [f for p in passes for f in p["failures"]]
    detail = {}
    for kind, name in DETAIL.items():
        samples = [t for p in passes for k, t in p["times"] if k == kind]
        if samples:
            detail[name] = {"value": statistics.median(samples), "unit": "s",
                            "samples": len(samples)}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "pass_s": pass_seconds(passes),
        "setup_samples_s": setups, "detail": detail,
        "layer_detail": layer_detail,
        "counts_repeat": counts_repeat, "machine": machine_info(),
        "failures": sorted(set(failures))[:20],
        "problems": sorted(set(problems))[:20]}))
    for line in sorted(set(failures + problems))[:20]:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not problems and counts_repeat is not False,
        "attempted": len(wl.ops) * len(passes),
        "failed": len(failures),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
