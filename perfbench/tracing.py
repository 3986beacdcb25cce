"""In-memory spans recorded by wrappers installed from the benchmark.

The program is not modified: the benchmark replaces module attributes
that calls go through (``panelspec.wle.kernel_density_at`` and so on)
with timing wrappers, runs the workload, and restores the originals.
A span is ``[name, start, end, parent, rep, attrs]``; self time is the
span's duration minus the part covered by its children. ``rep`` is
``(kind, unit, replication)``: each ``mcstudy.generate`` span starts the
next replication, so the program's own replication loop is split without
wrapping it.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from typing import Callable, Optional

# (module, attribute, span name, result hook). A hook turns the wrapped
# call's return value into span attributes. Every name a layer's calls
# go through is listed, because each module looks its callees up in its
# own globals.
_WFE = "wfe"
_TEST = "test"
REPLICATION_START = "mcstudy.generate"
# A tail is the highest order statistic with this many samples above it.
TAIL_BEYOND = 10
MIN_TAIL_SAMPLES = TAIL_BEYOND + 1
TARGETS = [
    ("panelspec.cli", "load_long_csv", "data.load", None),
    ("panelspec.cli", "run_study", "mcstudy.run_study", None),
    ("panelspec.cli", "fit_fixed_effects", "estimators.fe", None),
    ("panelspec.cli", "fit_random_effects", "estimators.re", None),
    ("panelspec.cli", "fit_weighted_fixed_effects", "wle.fit", _WFE),
    ("panelspec.cli", "hausman_test", "inference.hausman", _TEST),
    ("panelspec.cli", "weighted_hausman_test", "inference.whausman", _TEST),
    ("panelspec.mcstudy", "generate", "mcstudy.generate", None),
    ("panelspec.mcstudy", "apply_contamination", "mcstudy.contaminate", None),
    ("panelspec.mcstudy", "fit_fixed_effects", "estimators.fe", None),
    ("panelspec.mcstudy", "fit_random_effects", "estimators.re", None),
    ("panelspec.mcstudy", "fit_weighted_fixed_effects", "wle.fit", _WFE),
    ("panelspec.mcstudy", "hausman_test", "inference.hausman", _TEST),
    ("panelspec.mcstudy", "weighted_hausman_test", "inference.whausman", _TEST),
    ("panelspec.estimators", "fit_fixed_effects", "estimators.fe", None),
    ("panelspec.estimators", "fit_random_effects", "estimators.re", None),
    ("panelspec.estimators", "estimate_variance_components", "estimators.vc", None),
    ("panelspec.estimators", "within_transform", "transforms.within", None),
    ("panelspec.estimators", "quasi_demean", "transforms.quasi_demean", None),
    ("panelspec.estimators", "lstsq_qr", "linalg.lstsq_qr", None),
    ("panelspec.wle", "fit_weighted_fixed_effects", "wle.fit", _WFE),
    ("panelspec.wle", "within_transform", "transforms.within", None),
    ("panelspec.wle", "kernel_density_at", "wle.kde", None),
    ("panelspec.wle", "weight_function", "wle.weights", None),
    ("panelspec.wle", "lstsq_qr", "wle.solve", None),
    ("panelspec.inference", "hausman_test", "inference.hausman", _TEST),
    ("panelspec.inference", "weighted_hausman_test", "inference.whausman", _TEST),
]


def _hook_attrs(hook: Optional[str], result) -> Optional[dict]:
    if hook == _WFE:
        return {"iterations": int(result.iterations),
                "converged": bool(result.converged)}
    if hook == _TEST:
        return {"repaired": bool(result.repaired)}
    return None


class Tracer:
    """Span recorder plus the set of wrappers it installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.rep = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        if name == REPLICATION_START and self.rep is not None:
            kind, unit, rep = self.rep
            self.rep = (kind, unit, rep + 1)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.rep, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, attrs: Optional[dict] = None) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = attrs
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: {popped} != {idx}")

    def wrap(self, name: str, fn: Callable, hook: Optional[str]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            attrs = None
            try:
                out = fn(*args, **kwargs)
                attrs = _hook_attrs(hook, out)
                return out
            except Exception as exc:
                attrs = {"raised": type(exc).__name__}
                raise
            finally:
                self.close(idx, attrs)

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        self.missing = []
        for module_name, attr, name, hook in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            if module is None or not callable(getattr(module, attr, None)):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def missing_spans(self) -> set[str]:
        """Span names none of whose call sites could be wrapped."""
        present = {name for m, a, name, _ in TARGETS
                   if f"{m}.{a}" not in self.missing}
        return {name for _, _, name, _ in TARGETS} - present


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the time covered by direct children, per span."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest order statistic with ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile)``; needs ``MIN_TAIL_SAMPLES`` samples.
    """
    n = len(samples)
    if n < MIN_TAIL_SAMPLES:
        raise ValueError(f"a tail needs at least {MIN_TAIL_SAMPLES} samples, got {n}")
    ordered = sorted(samples)
    k = n - MIN_TAIL_SAMPLES  # zero-based; TAIL_BEYOND samples lie above it
    return ordered[k], 100.0 * (k + 1) / n


def median(values):
    return statistics.median(values) if values else None
