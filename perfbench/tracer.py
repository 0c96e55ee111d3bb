"""Per-layer tracing of bpcalc from outside the package.

``Tracer.install`` replaces every public function of each layer module, in
every bpcalc module that binds its name, with a wrapper, so calls within a
module and across modules are both seen (``spectra.apply_psi`` is one such
binding).  It also wraps the ``expm`` names bound in ``calculus`` and
``semigroup`` and, per call, the integrands handed to the quadrature
routines of ``_integrate``.  ``uninstall`` puts every original back.

Calls at layer boundaries become spans kept in memory (name, start, end,
parent, operation id, thread).  Per-evaluation work -- integrand calls,
everything nested inside them, point evaluations of psi and ``expm`` -- is
counted and timed in aggregate instead, so the span list stays small and
the counts stay exact.  Self time is computed on the fly: a call's duration
minus the durations of the calls it made on the same thread.
"""

import functools
import hashlib
import inspect
import threading
import time

# layer name -> (module, public functions traced)
LAYERS = {
    "semigroup": ("bpcalc.semigroup", None),
    # expm1c is an elementwise helper called once per quadrature node; its
    # cost is part of the integrand time
    "integrate": ("bpcalc._integrate",
                  ("integrate_radial", "integrate_orthant", "composite_gauss")),
    "bernstein": ("bpcalc.bernstein", None),
    "calculus": ("bpcalc.calculus", None),
    "spectra": ("bpcalc.spectra", None),
    "analysis": ("bpcalc.analysis", None),
    "cli": ("bpcalc.cli", ("parse_config", "run", "emit_report")),
}
BINDING_MODULES = ("bpcalc", "bpcalc.semigroup", "bpcalc._integrate",
                   "bpcalc.bernstein", "bpcalc.calculus", "bpcalc.spectra",
                   "bpcalc.analysis", "bpcalc.cli")
EXPM_MODULES = ("calculus", "semigroup")
# point evaluations of psi: per-evaluation work, never spans
POINT_FUNCTIONS = ("bernstein.eval_psi", "bernstein.eval_via_levy")
JOINT_FUNCTIONS = ("spectra.joint_point_spectrum",
                   "spectra.joint_residual_spectrum",
                   "spectra.joint_approximate_spectrum",
                   "spectra.joint_spectrum")
SPAN_FIELDS = ("name", "start", "end", "parent", "op", "thread")
UNITS = {
    "cli.calls": "count",
    "cli.parse_s": "s", "cli.run_s": "s", "cli.emit_s": "s",
    "cli.experiment_wall_ratio": "ratio",
    "semigroup.calls": "count", "semigroup.self_s": "s",
    "semigroup.expm_calls": "count",
    "integrate.calls": "count", "integrate.evals": "count",
    "integrate.evals_per_call": "ratio", "integrate.self_s": "s",
    "integrate.integrand_s": "s", "integrate.max_radius": "1",
    "calculus.calls": "count", "calculus.self_s": "s",
    "calculus.expm_calls": "count", "calculus.expm_s": "s",
    "calculus.w_operator_s": "s", "calculus.v_operator_calls": "count",
    "calculus.apply_psi_distinct_ratio": "ratio",
    "spectra.calls": "count", "spectra.self_s": "s",
    "spectra.joint_distinct_ratio": "ratio",
    "bernstein.eval_calls": "count", "bernstein.self_s": "s",
    "analysis.calls": "count", "analysis.self_s": "s",
}
# times that read exactly 0 on every run of a workload that does not reach
# the layer (cli and analysis outside suite, expm on spectral); they go on
# the detail line, and the result line keeps the layer's counts and ratios
DETAIL_ONLY = ("cli.parse_s", "cli.run_s", "cli.emit_s", "analysis.self_s",
               "calculus.expm_s")


def _public_functions(module, names):
    if names is None:
        names = getattr(module, "__all__", ())
    return {n: getattr(module, n) for n in names
            if inspect.isfunction(getattr(module, n))
            and getattr(module, n).__module__ == module.__name__}


def _tuple_digest(A):
    h = hashlib.blake2b(digest_size=16)
    for g in A.generators:
        h.update(g.tobytes())
    return h.hexdigest()


class _Frame:
    __slots__ = ("layer", "start", "child", "span")

    def __init__(self, layer, start, span):
        self.layer, self.start, self.child, self.span = layer, start, 0.0, span


class Tracer:
    """Collects spans and per-layer aggregates while installed."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._saved = []
        self.spans = []
        self.op = None
        self.enabled = True
        self.reset()

    # -- lifecycle ---------------------------------------------------------

    def reset(self):
        """Start a new accounting window (one pass); spans are kept."""
        self.counts = {}
        self.seconds = {}
        self.max_radius = 0.0
        self._psi_keys, self._psi_calls, self._alive = set(), 0, []
        self._joint_keys, self._joint_calls = set(), 0

    def install(self):
        import importlib
        mods = {m: importlib.import_module(m) for m in BINDING_MODULES}
        originals = {}
        for layer, (modname, names) in LAYERS.items():
            for name, fn in _public_functions(mods[modname], names).items():
                originals[id(fn)] = (fn, self._wrap(layer, name, fn))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for layer in EXPM_MODULES:
            mod = mods["bpcalc." + layer]
            self._saved.append((mod, "expm", mod.expm))
            mod.expm = self._wrap_expm(layer, mod.expm)

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved = []

    # -- accounting --------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _aggregated(self):
        return getattr(self._local, "depth", 0) > 0

    def _enter(self, layer, name, spanned):
        stack = self._stack()
        span = None
        if spanned:
            if stack:
                parent = stack[-1].span
            elif self._main_stack:
                # a worker thread of cli.run: attach to the span that is
                # open on the main thread, which is waiting for it
                parent = self._main_stack[-1].span
            else:
                parent = None
            with self._lock:
                span = len(self.spans)
                self.spans.append(None)
            self.spans[span] = [name, 0.0, 0.0, parent, self.op,
                                threading.get_ident()]
        frame = _Frame(layer, time.perf_counter(), span)
        stack.append(frame)
        return frame

    def _exit(self, frame, name):
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        dur = end - frame.start
        if stack:
            stack[-1].child += dur
        if frame.span is not None:
            self.spans[frame.span][1:3] = [frame.start, end]
        with self._lock:
            c, s = self.counts, self.seconds
            c[name] = c.get(name, 0) + 1
            s[name] = s.get(name, 0.0) + dur
            key = frame.layer + ".self"
            s[key] = s.get(key, 0.0) + (dur - frame.child)
        return dur

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer, name, fn):
        qual = "%s.%s" % (layer, name)
        sig = inspect.signature(fn)
        point = qual in POINT_FUNCTIONS
        keyed = qual == "calculus.apply_psi" or qual in JOINT_FUNCTIONS
        wraps_integrands = layer == "integrate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if keyed:
                self._record_key(qual, sig, args, kwargs)
            if wraps_integrands:
                args, kwargs = self._wrap_integrands(name, args, kwargs)
            aggregated = point or self._aggregated()
            if point:
                self._local.depth = getattr(self._local, "depth", 0) + 1
            frame = self._enter(layer, qual, spanned=not aggregated)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, qual)
                if point:
                    self._local.depth -= 1

        return wrapper

    def _wrap_expm(self, layer, fn):
        key = layer + ".expm"

        @functools.wraps(fn)
        def expm(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                with self._lock:
                    self.counts[key] = self.counts.get(key, 0) + 1
                    self.seconds[key] = self.seconds.get(key, 0.0) + dt

        return expm

    def _wrap_integrands(self, name, args, kwargs):
        radial = name == "integrate_radial"
        if name == "integrate_orthant":
            args = (args[0], self._integrand(args[1], False)) + tuple(args[2:])
        else:
            args = (self._integrand(args[0], radial),) + tuple(args[1:])
        if radial and kwargs.get("f_over_r") is not None:
            kwargs = dict(kwargs, f_over_r=self._integrand(kwargs["f_over_r"], True))
        return args, kwargs

    def _integrand(self, f, radial):
        def integrand(r, *rest):
            local = self._local
            outer = getattr(local, "depth", 0) == 0
            local.depth = getattr(local, "depth", 0) + 1
            frame = self._enter("integrand", "integrate.integrand", spanned=False)
            try:
                return f(r, *rest)
            finally:
                dur = self._exit(frame, "integrate.integrand")
                local.depth -= 1
                with self._lock:
                    self.counts["integrate.evals"] = \
                        self.counts.get("integrate.evals", 0) + 1
                    if outer:
                        self.seconds["integrate.integrand"] = \
                            self.seconds.get("integrate.integrand", 0.0) + dur
                    if radial and r > self.max_radius:
                        self.max_radius = float(r)

        return integrand

    def _record_key(self, qual, sig, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        digest = _tuple_digest(a["A"])
        with self._lock:
            if qual == "calculus.apply_psi":
                # holding psi keeps its id from being reused within the window
                self._alive.append(a["psi"])
                self._psi_keys.add((id(a["psi"]), digest, a["tol"]))
                self._psi_calls += 1
            else:
                self._joint_keys.add((qual, digest, a["tol"]))
                self._joint_calls += 1

    # -- results -----------------------------------------------------------

    def window_metrics(self, experiment_wall):
        """Per-layer metrics of the current window (one pass)."""
        c, s = self.counts, self.seconds

        def calls(layer):
            return sum(v for k, v in c.items()
                       if k.startswith(layer + ".") and k.count(".") == 1
                       and not k.endswith((".expm", ".evals", ".integrand")))

        def ratio(num, den):
            return num / den if den else 0.0

        radial_calls = c.get("integrate.integrate_radial", 0)
        quad_calls = (radial_calls + c.get("integrate.integrate_orthant", 0)
                      + c.get("integrate.composite_gauss", 0))
        run_s = s.get("cli.run", 0.0)
        return {
            "cli.calls": calls("cli"),
            "cli.parse_s": s.get("cli.parse_config", 0.0),
            "cli.run_s": run_s,
            "cli.emit_s": s.get("cli.emit_report", 0.0),
            "cli.experiment_wall_ratio": ratio(experiment_wall, run_s),
            "semigroup.calls": calls("semigroup"),
            "semigroup.self_s": s.get("semigroup.self", 0.0),
            "semigroup.expm_calls": c.get("semigroup.expm", 0),
            "integrate.calls": quad_calls,
            "integrate.evals": c.get("integrate.evals", 0),
            "integrate.evals_per_call": ratio(c.get("integrate.evals", 0), quad_calls),
            "integrate.self_s": s.get("integrate.self", 0.0),
            "integrate.integrand_s": s.get("integrate.integrand", 0.0),
            "integrate.max_radius": self.max_radius,
            "calculus.calls": calls("calculus"),
            "calculus.self_s": s.get("calculus.self", 0.0),
            "calculus.expm_calls": c.get("calculus.expm", 0),
            "calculus.expm_s": s.get("calculus.expm", 0.0),
            "calculus.w_operator_s": s.get("calculus.w_operator", 0.0),
            "calculus.v_operator_calls": c.get("calculus.v_operator", 0),
            "calculus.apply_psi_distinct_ratio": ratio(len(self._psi_keys),
                                                       self._psi_calls),
            "spectra.calls": calls("spectra"),
            "spectra.self_s": s.get("spectra.self", 0.0),
            "spectra.joint_distinct_ratio": ratio(len(self._joint_keys),
                                                  self._joint_calls),
            "bernstein.eval_calls": (c.get("bernstein.eval_psi", 0)
                                     + c.get("bernstein.eval_via_levy", 0)),
            "bernstein.self_s": s.get("bernstein.self", 0.0),
            "analysis.calls": calls("analysis"),
            "analysis.self_s": s.get("analysis.self", 0.0),
        }

    def begin_op(self, op_id):
        self.op = op_id

    def span_records(self):
        return [list(s) for s in self.spans if s is not None]
