"""The public surface: every exported name resolves, and removed names stay
removed."""

import importlib

import bpcalc

MODULES = ["bpcalc", "bpcalc.analysis", "bpcalc.bernstein", "bpcalc.calculus",
           "bpcalc.semigroup", "bpcalc.spectra"]

# names deleted because nothing in the package, the CLI or the benchmark
# called them; an export of any of them would be stale
REMOVED = {"bpcalc.bernstein": ["check_absolute_monotonicity",
                                "MonotonicityReport"],
           "bpcalc.semigroup": ["estimate_bound", "BOUND_KINDS"]}


def test_public_surface():
    star = {}
    exec("from bpcalc import *", star)
    assert set(bpcalc.__all__) <= set(star)
    assert len(bpcalc.__all__) == len(set(bpcalc.__all__))
    for name in MODULES:
        module = importlib.import_module(name)
        for export in module.__all__:
            assert hasattr(module, export), (name, export)
    for name, removed in REMOVED.items():
        for gone in removed:
            assert not hasattr(importlib.import_module(name), gone)
            assert gone not in bpcalc.__all__ and not hasattr(bpcalc, gone)
    for method in ("total_mass", "min_integral", "mass_outside", "is_empty"):
        assert not hasattr(bpcalc.LevyMeasure, method)
    assert "total_mass" not in bpcalc.RadialDensity.__dataclass_fields__
