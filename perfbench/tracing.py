"""Spans around the package's public functions, recorded from outside it.

Modules import each other with ``from .x import f``, so one function has a
binding in every module that imports it (``pspurity.cli.extract_bogoliubov``
and ``pspurity.scenarios.extract_bogoliubov`` are two names for one object).
``Tracer.install`` replaces every binding of each traced function, in the
package and all its modules, with one wrapper and puts the originals back
in ``uninstall``.  Spans stay in memory until ``write``; each carries the
index of the benchmark operation it belongs to.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path

import numpy as np

LAYERS = ("cli", "crosscheck", "scenarios", "gaussian", "subtraction",
          "bounds", "quadrature", "fock")

#: traced public functions per layer; span names are "<layer>.<function>"
FUNCTIONS = {
    "cli": ("main",),
    "scenarios": ("random_state", "sweep", "topology_search"),
    "gaussian": ("williamson",),
    "subtraction": ("extract_bogoliubov", "relative_purity_closed_form",
                    "subtract_photon", "purity_subtracted",
                    "moments_subtracted", "marginal_subtracted"),
    "bounds": ("purification_conditions",),
    "quadrature": ("purity_by_grid", "variance_by_grid"),
    "fock": ("run_circuit_fock", "gaussian_state_to_fock",
             "quadrature_moments_fock", "subtract_photon_fock",
             "reduced_purity_fock"),
}
#: classes whose constructor (with its validation) is traced
CLASSES = {"gaussian": ("GaussianState", "ModeSelector")}
#: the verify checks, traced with the deviation and tolerance they return
CHECKS = ("check_reference_state", "check_closed_form_vs_moments",
          "check_closed_form_vs_grid", "check_reference_variances_by_grid",
          "check_three_mode_global_purity", "check_three_mode_fock")
#: factories whose returned Wigner callables are traced as one span kind
WIGNER_FACTORIES = (("gaussian", "gaussian_wigner_fn"),
                    ("subtraction", "subtracted_wigner_fn"))
WIGNER = "gaussian.wigner_points"
FOCK_PREPARERS = ("fock.run_circuit_fock", "fock.gaussian_state_to_fock")
GRID_ORACLES = ("quadrature.purity_by_grid", "quadrature.variance_by_grid")


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in FUNCTIONS.items() for fn in fns]
    names += [f"{layer}.{cls}" for layer, classes in CLASSES.items() for cls in classes]
    return names


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units[f"{WIGNER}.count"] = "count"
    units[f"{WIGNER}.self_s"] = "s"
    for check in CHECKS:
        units[f"crosscheck.{check}.s"] = "s"
        units[f"crosscheck.{check}.deviation"] = "1"
    units["fock.state_dim"] = "count"
    units["fock.state_bytes"] = "bytes"
    units["quadrature.points_per_call"] = "count"
    units["cli.bytes_written"] = "bytes"
    units["cli.fuzz_refused"] = "count"
    for layer in LAYERS:
        units[f"{layer}.exceptions"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self, package):
        self.package = package
        self.active = True
        self.op = 0  # index of the benchmark operation now running
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.exceptions: dict[str, dict[str, int]] = {}
        self.checks: dict[str, tuple[float, float]] = {}
        self.refused = 0
        self.state_dim = 0
        self.points_per_call = 0
        self.wigner_points = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def _modules(self):
        return [self.package] + [getattr(self.package, layer) for layer in LAYERS]

    def _rebind(self, original, replacement):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        for layer, names in FUNCTIONS.items():
            module = getattr(self.package, layer)
            for fn in names:
                original = getattr(module, fn)
                self._rebind(original, self._wrap(f"{layer}.{fn}", original))
        for layer, names in CLASSES.items():
            for cls_name in names:
                cls = getattr(getattr(self.package, layer), cls_name)
                self._restore.append((cls, "__init__", cls.__init__))
                cls.__init__ = self._wrap(f"{layer}.{cls_name}", cls.__init__)
        crosscheck = self.package.crosscheck
        for check in CHECKS:
            original = getattr(crosscheck, check)
            self._rebind(original, self._wrap(f"crosscheck.{check}", original))
        for layer, factory in WIGNER_FACTORIES:
            original = getattr(getattr(self.package, layer), factory)
            self._rebind(original, self._wrap_factory(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _raised(self, name: str, exc: Exception):
        # count an exception once, in the layer it first escaped from
        if getattr(exc, "_perfbench_seen", False):
            return
        exc._perfbench_seen = True
        layer = name.split(".", 1)[0]
        by_type = self.exceptions.setdefault(layer, {})
        by_type[type(exc).__name__] = by_type.get(type(exc).__name__, 0) + 1
        caller = self.spans[self._stack[-1]][0] if self._stack else ""
        if (name == "subtraction.relative_purity_closed_form" and caller == "cli.main"
                and type(exc).__name__ == "SubtractionFromVacuumError"):
            self.refused += 1

    def _wrap(self, name: str, func):
        tracer = self
        signature = inspect.signature(func) if name in GRID_ORACLES else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                tracer._close(span)
                tracer._raised(name, exc)
                raise
            tracer._close(span)
            tracer._observe(name, result, signature, args, kwargs)
            return result

        return wrapper

    def _observe(self, name, result, signature, args, kwargs):
        if name in FOCK_PREPARERS:
            dim = int(np.prod(result.truncation.cutoffs))
            self.state_dim = max(self.state_dim, dim)
        elif signature is not None:
            bound = signature.bind(*args, **kwargs).arguments
            points = bound["grid"].points_per_axis ** (2 * bound["num_modes"])
            self.points_per_call = max(self.points_per_call, points)
        elif name.startswith("crosscheck."):
            self.checks[name] = (float(result.deviation), float(result.tolerance))

    def _wrap_factory(self, factory):
        tracer = self

        @functools.wraps(factory)
        def make(*args, **kwargs):
            wigner = factory(*args, **kwargs)
            if not tracer.active:
                return wigner

            @functools.wraps(wigner)
            def traced(points):
                if not tracer.active:
                    return wigner(points)
                span = tracer._open(WIGNER)
                try:
                    return wigner(points)
                finally:
                    tracer._close(span)
                    parent = span[3]
                    # subtracted Wigner callables evaluate a Gaussian one inside
                    if parent < 0 or tracer.spans[parent][0] != WIGNER:
                        shape = np.shape(points)
                        tracer.wigner_points += (
                            int(np.prod(shape[:-1])) if len(shape) > 1 else 1
                        )

            return traced

        return make

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
            total_s[name] = total_s.get(name, 0.0) + (end - start)
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{WIGNER}.count"] = self.wigner_points
        out[f"{WIGNER}.self_s"] = self_s.get(WIGNER, 0.0)
        for check in CHECKS:
            name = f"crosscheck.{check}"
            out[f"{name}.s"] = total_s.get(name, 0.0)
            out[f"{name}.deviation"] = self.checks.get(name, (0.0, 0.0))[0]
        out["fock.state_dim"] = self.state_dim
        out["fock.state_bytes"] = 16 * self.state_dim
        out["quadrature.points_per_call"] = self.points_per_call
        out["cli.fuzz_refused"] = self.refused
        for layer in LAYERS:
            out[f"{layer}.exceptions"] = sum(self.exceptions.get(layer, {}).values())
        return out

    def write(self, path: Path):
        """Write the spans as [name index, start, end, parent, op] rows."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[index[name], round(start - origin, 9), round(end - origin, 9), parent, op]
                for name, start, end, parent, op in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": names, "spans": rows}, separators=(",", ":")))
