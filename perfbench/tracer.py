"""Outside tracer: per-layer self time and counters, with no edit to src/.

`Tracer.installed()` replaces every public function and public method of the
koszulcone layer modules with a timing wrapper, on the defining class or
module and on every other koszulcone module namespace that bound the same
function object by name (`complexes.mat_rank`, the names `cli` imports,
`ideals.left_ideal_contains`, the package re-exports).  Leaving the context
restores every original.

A layer's self time is the summed duration of its spans minus the time of
their wrapped children, so the layer self times plus the time outside
`cli.main` add up to the traced wall time.  Scalar field arithmetic
(`PrimeField.add`, ...) is not wrapped: it is charged to the calling layer,
and `linalg` means exact elimination and subspace operations.

The trace covers this one process only; nothing machine-wide is traced.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time

LAYERS = ("linalg", "algebra", "dual", "ideals", "complexes", "cli")

# field classes whose methods other than rref are scalar arithmetic
SCALAR_CLASSES = ("PrimeField", "RationalField")

# the one private function wrapped: every colon computation goes through it
EXTRA = {"ideals": ("_colon_against_space",)}

RREF = ("linalg.PrimeField.rref", "linalg.RationalField.rref")
RANK = "linalg.rank"
COMPONENT = ("dual.QuadraticDual.component", "dual.QuotientDual.component")
MULT_COLUMNS = "algebra.GradedAlgebra.multiplication_columns"
DEGREEWISE = "complexes.ChainComplex.degreewise_matrix"

# inclusive times: a span counts only when no span of the same group is open
INCLUSIVE = {
    "ideals.check_s": ("ideals.MonomialIdeal.check_linear_quotients",
                       "ideals.MonomialIdeal.check_regular_ordering",
                       "ideals.MonomialIdeal.check_star_condition",
                       "ideals.check_strongly_koszul"),
    "complexes.build_s": ("complexes.iterated_mapping_cone",
                          "complexes.closed_form_resolution",
                          "complexes.priddy_complex",
                          "complexes.sub_priddy_complex"),
    "complexes.verify_s": ("complexes.verify_complex",
                           "complexes.koszulness_certificate"),
    "complexes.d2_s": ("complexes.ChainComplex.d_squared_witness",),
    "dual.component_s": COMPONENT,
}

# per-layer counters: metric name -> wrapped function whose calls it counts
CALL_COUNTS = {
    "linalg.reduce_calls": "linalg.Subspace.reduce",
    "algebra.multiply_calls": "algebra.GradedAlgebra.multiply",
    "dual.contract_calls": "dual.QuadraticDual.contract",
    "ideals.colon_calls": "ideals._colon_against_space",
    "ideals.membership_calls": "ideals.MonomialIdeal.contains",
    "complexes.homology_calls": "complexes.ChainComplex.homology_rank",
}


class _Span:
    __slots__ = ("key", "child_s", "children")

    def __init__(self, key):
        self.key = key
        self.child_s = 0.0
        self.children = 0


class Tracer:
    """Wraps the layer modules of one imported koszulcone package.

    Counters accumulate until `reset()`; `snapshot()` returns them as a flat
    dict of additive numbers (plus `dual.max_ambient`).
    """

    def __init__(self, package):
        self.package = package
        self._qq_type = sys.modules[f"{package.__name__}.linalg"].RationalField
        self._restore = []
        self.stack = [_Span(None)]
        self.calls = {}
        # per layer: [self seconds, self seconds over QQ]
        self.layer_s = {layer: [0.0, 0.0] for layer in LAYERS}
        self.inclusive = dict.fromkeys(INCLUSIVE, 0.0)
        self._open = dict.fromkeys(INCLUSIVE, 0)
        self.extra = {}
        self.reset()

    def reset(self):
        del self.stack[1:]
        self.stack[0].child_s = 0.0
        self.stack[0].children = 0
        for rec in self.calls.values():
            rec[0] = 0
        for rec in self.layer_s.values():
            rec[0] = rec[1] = 0.0
        for g in INCLUSIVE:
            self.inclusive[g] = 0.0
            self._open[g] = 0
        self.extra.update({
            "linalg.cells": 0, "linalg.rank_only_cells": 0,
            "algebra.mult_columns_calls": 0, "algebra.mult_columns_hits": 0,
            "dual.component_calls": 0, "dual.component_hits": 0,
            "dual.ambient_cells": 0, "dual.max_ambient": 0,
            "complexes.degreewise_cells": 0,
        })

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer entry point; restore the originals on exit."""
        try:
            self._install()
            yield self
        finally:
            for owner, name, original in reversed(self._restore):
                setattr(owner, name, original)
            self._restore = []

    def _install(self):
        pkg = self.package.__name__
        by_function = {}
        for layer in LAYERS:
            mod = sys.modules[f"{pkg}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if name.startswith("_") and name not in EXTRA.get(layer, ()):
                    continue
                if inspect.isfunction(obj):
                    by_function[obj] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        # rebind every name a caller bound to a wrapped function
        for name, mod in sorted(sys.modules.items()):
            if mod is None or not (name == pkg or name.startswith(pkg + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in by_function:
                    self._set(mod, attr, by_function[obj])

    def _wrap_class(self, cls, layer):
        for name, attr in list(vars(cls).items()):
            if cls.__name__ in SCALAR_CLASSES and name != "rref":
                continue
            if name.startswith("_") and name != "__init__":
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                self._set(cls, name, type(attr)(self._wrap(attr.__func__, key, layer)))
            elif inspect.isfunction(attr):
                # a dataclass-generated __init__ is not a layer entry point
                if name == "__init__" and attr.__code__.co_filename.startswith("<"):
                    continue
                self._set(cls, name, self._wrap(attr, key, layer))

    def _set(self, owner, name, value):
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, fn, key, layer):
        tracer, clock = self, time.perf_counter
        rec = self.calls.setdefault(key, [0])
        lay = self.layer_s[layer]
        qq_type = self._qq_type if layer == "linalg" else None
        groups = tuple(g for g, keys in INCLUSIVE.items() if key in keys)
        observe = key in RREF or key in COMPONENT or key in (MULT_COLUMNS, DEGREEWISE)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            span = _Span(key)
            stack.append(span)
            for g in groups:
                tracer._open[g] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent.child_s += dt
                parent.children += 1
                own = dt - span.child_s
                rec[0] += 1
                lay[0] += own
                if qq_type is not None and _over_qq(args, qq_type):
                    lay[1] += own
                for g in groups:
                    tracer._open[g] -= 1
                    if not tracer._open[g]:
                        tracer.inclusive[g] += dt
            if observe:
                tracer._observe(key, args, result, span, parent)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _observe(self, key, args, result, span, parent):
        ex = self.extra
        if key in RREF:
            cells = len(args[1]) * args[2]
            ex["linalg.cells"] += cells
            if parent.key == RANK:
                ex["linalg.rank_only_cells"] += cells
        elif key in COMPONENT:
            # a call that reached no wrapped function was served from cache
            ex["dual.component_calls"] += 1
            if span.children == 0:
                ex["dual.component_hits"] += 1
            else:
                ex["dual.ambient_cells"] += result.dim * result.ambient
                ex["dual.max_ambient"] = max(ex["dual.max_ambient"], result.ambient)
        elif key == MULT_COLUMNS:
            ex["algebra.mult_columns_calls"] += 1
            if span.children == 0:
                ex["algebra.mult_columns_hits"] += 1
        else:
            ex["complexes.degreewise_cells"] += result[1] * result[2]

    # -- results --------------------------------------------------------------

    def snapshot(self):
        """Raw counters of everything traced since the last reset."""
        out = {f"{layer}.self_s": rec[0] for layer, rec in self.layer_s.items()}
        out["linalg.qq_self_s"] = self.layer_s["linalg"][1]
        out["linalg.calls"] = sum(self.calls[k][0] for k in RREF if k in self.calls)
        for metric, key in CALL_COUNTS.items():
            out[metric] = self.calls[key][0] if key in self.calls else 0
        out.update(self.inclusive)
        out.update(self.extra)
        out["dual.component_builds"] = out["dual.component_calls"] - out["dual.component_hits"]
        return out


def _over_qq(args, qq_type):
    """True when the field of a linalg call is the rationals."""
    for a in args[:2]:
        if isinstance(a, list):
            a = a[0] if a else None
        if isinstance(a, qq_type) or isinstance(getattr(a, "field", None), qq_type):
            return True
    return False


def layer_metrics(raw, plain_wall_s):
    """Per-layer metrics from raw counters summed over a pass of traced jobs.

    raw also holds `trace.wall_s` (traced job wall time) and `cli.out_bytes`.
    Times a workload may never enter (QQ elimination, building, verifying,
    d.d) are given as shares, so that a layer a workload skips reads 0 as a
    ratio rather than as a time.
    """
    wall = raw["trace.wall_s"]
    out = {k: raw[k] for k in (
        "linalg.calls", "linalg.cells", "linalg.reduce_calls",
        "algebra.multiply_calls", "dual.component_builds", "dual.ambient_cells",
        "dual.max_ambient", "dual.contract_calls", "ideals.colon_calls",
        "ideals.membership_calls", "ideals.check_s", "dual.component_s",
        "complexes.homology_calls",
        "complexes.degreewise_cells", "cli.out_bytes", "trace.wall_s")}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = raw[f"{layer}.self_s"]
    out["linalg.qq_share"] = _ratio(raw["linalg.qq_self_s"], raw["linalg.self_s"])
    out["linalg.rank_only_share"] = _ratio(raw["linalg.rank_only_cells"], raw["linalg.cells"])
    out["algebra.mult_columns_hit_ratio"] = _ratio(raw["algebra.mult_columns_hits"],
                                                   raw["algebra.mult_columns_calls"])
    out["dual.component_hit_ratio"] = _ratio(raw["dual.component_hits"],
                                             raw["dual.component_calls"])
    for name in ("build", "verify", "d2"):
        out[f"complexes.{name}_share"] = _ratio(raw[f"complexes.{name}_s"], wall)
    out["trace.unattributed_s"] = wall - sum(raw[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.overhead_frac"] = wall / plain_wall_s - 1.0
    return out


def _ratio(num, den):
    return num / den if den else 0.0
