"""Self-test of the benchmark, at reduced sizes.

    python3 perfbench/selftest.py

For every workload it shows that

* each check passes on the program's own output, and fails when that
  output is perturbed;
* the tracer's wrappers change no result: a traced pass gives the same
  outputs, bit for bit, as an untraced one, its counts repeat exactly in a
  second traced pass, and uninstalling puts every original binding back.

Exits 0 when everything holds, 1 otherwise.
"""

import copy
import dataclasses
import importlib
import sys

import numpy as np

import run
from tracer import BINDING_MODULES, UNITS, Tracer

FAILURES = []


def expect(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def perturbations(out):
    """(description, perturbed copy) pairs, each of which a check must reject."""
    rng = np.random.default_rng(0)
    if isinstance(out, np.ndarray):
        E = rng.standard_normal(out.shape) + 1j * rng.standard_normal(out.shape)
        scale = 1e-4 * max(1.0, np.linalg.norm(out, 2)) / np.linalg.norm(E, 2)
        return [("matrix moved by 1e-4 in norm", out + scale * E)]
    if isinstance(out, float):
        return [("residual raised to 1e-5", 1e-5)]
    if isinstance(out, dict):
        csv = bytearray(out["csv"])
        csv[-3] = ord("7") if csv[-3] != ord("7") else ord("8")
        return [("exit code 1", dict(out, exit=1)),
                ("one row fewer", dict(out, rows=out["rows"] - 1)),
                ("one CSV byte changed", dict(out, csv=bytes(csv)))]
    if type(out).__name__ == "MappingReport":
        row = out.rows[0]
        moved = dataclasses.replace(row, mapped=row.mapped + 1e-3 * (1 + abs(row.mapped)))
        return [("first mapped value moved",
                 dataclasses.replace(out, rows=(moved,) + out.rows[1:]))]
    if type(out).__name__ == "OperatorTuple":
        return [("bounds lowered to 0.5",
                 dataclasses.replace(out, bounds=(0.5,) * out.n))]
    raise TypeError("no perturbation for %r" % type(out))


def same(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return all(a[k] == b[k] for k in ("exit", "rows", "csv"))
    if type(a).__name__ == "MappingReport":
        return (a.part, a.applicable, a.reason) == (b.part, b.applicable, b.reason) \
            and len(a.rows) == len(b.rows) \
            and all(dataclasses.astuple(x) == dataclasses.astuple(y)
                    for x, y in zip(a.rows, b.rows))
    if type(a).__name__ == "OperatorTuple":
        return a.bounds == b.bounds and all(
            np.array_equal(x, y) for x, y in zip(a.generators, b.generators))
    return a == b


def bindings():
    return {m: dict(vars(importlib.import_module(m))) for m in BINDING_MODULES}


def test_workload(name):
    wl = run.setup(name, seed=1, small=True)
    cache = {}
    _, outputs, failures, _ = run.run_pass(wl)
    expect(not failures, "%s: no operation fails %s" % (name, failures[:1]))
    problems = run.check_pass(wl, outputs, cache)
    expect(not problems, "%s: every check passes on the program's output %s"
           % (name, problems[:1]))
    for op in wl.ops:
        if op.label not in outputs:
            continue
        for what, bad in perturbations(outputs[op.label]):
            made = dict(outputs)
            made[op.label] = bad
            caught = op.check(bad, made, copy.copy(cache))
            expect(bool(caught), "%s: %s check rejects %s" % (name, op.label, what))

    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        _, first, _, layer1 = run.run_pass(wl, tracer)
        _, second, _, layer2 = run.run_pass(wl, tracer)
    finally:
        tracer.uninstall()
    expect(all(same(outputs[k], first[k]) and same(outputs[k], second[k])
               for k in outputs),
           "%s: traced outputs equal untraced ones bit for bit" % name)
    counts = [k for k, u in UNITS.items() if u == "count"]
    expect(all(layer1[k] == layer2[k] for k in counts),
           "%s: per-layer counts repeat exactly" % name)
    expect(any(layer1[k] > 0 for k in counts), "%s: the tracer saw calls" % name)
    after = bindings()
    expect(all(before[m][k] is after[m].get(k) for m in before for k in before[m]),
           "%s: uninstall restores every binding" % name)


def main():
    sys.path.insert(0, str(run.SRC))
    for name in ("spectral", "generator", "suite"):
        test_workload(name)
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
