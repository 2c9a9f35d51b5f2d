"""Span tracing of dotent's layers, done from outside the package.

The tracer replaces public functions by timed wrappers in the namespace of
the module that calls them (``from .closed_form import entropy_curve``
binds a second name in ``dotent.analysis``, so both names are wrapped) and
puts every original back on ``uninstall``.  Spans are kept in memory as
``[name, start, end, parent, child_seconds]`` and reduced to per-layer
metrics by ``layer_metrics`` once the traced job has finished.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# (module, attribute, span name): every public dotent function a module
# calls, bound in the namespace it is called from.  Whatever `cli` calls is
# listed, except the microsecond `period`, so that the self time of
# `cli.main` is parsing, formatting and writing.
SPANS = [
    ("dotent.cli", "main", "cli.main"),
    ("dotent.cli", "find_max", "analysis.find_max"),
    ("dotent.cli", "sweep_over_M", "analysis.sweep"),
    ("dotent.cli", "sweep_over_N", "analysis.sweep"),
    ("dotent.cli", "fit_inverse_linear", "analysis.fit"),
    ("dotent.cli", "amplitude_table", "closed_form.amplitude_table"),
    ("dotent.cli", "schmidt_spectrum", "closed_form.schmidt_spectrum"),
    ("dotent.cli", "entanglement", "closed_form.entanglement"),
    ("dotent.cli", "trace_entanglement", "closed_form.trace_entanglement"),
    ("dotent.cli", "build_basis", "oracle.build_basis"),
    ("dotent.cli", "build_hamiltonian", "oracle.build_hamiltonian"),
    ("dotent.cli", "evolve", "oracle.evolve"),
    ("dotent.cli", "reduced_entropy", "oracle.reduced_entropy"),
    ("dotent.analysis", "find_max", "analysis.find_max"),
    ("dotent.analysis", "sweep_over_N", "analysis.sweep"),
    ("dotent.analysis", "amplitude_table", "closed_form.amplitude_table"),
    ("dotent.analysis", "entropy_curve", "closed_form.entropy_curve"),
    ("dotent.analysis", "schmidt_spectrum", "closed_form.schmidt_spectrum"),
    ("dotent.closed_form", "amplitude_table", "closed_form.amplitude_table"),
    ("dotent.closed_form", "entropy_curve", "closed_form.entropy_curve"),
    ("dotent.closed_form", "schmidt_spectrum", "closed_form.schmidt_spectrum"),
]

# Counted, not timed: a span around every binomial would cost more than
# the binomial itself.
COUNTED = [("dotent.closed_form", "binomial", "combinatorics.binomial.calls")]

# Span names whose time, call count and self time are reported.
REPORTED_SPANS = {
    "cli.main": ("s", "self_s"),
    "analysis.find_max": ("calls", "s", "self_s"),
    "analysis.sweep": ("s",),
    "analysis.fit": ("s",),
    "closed_form.amplitude_table": ("calls", "s"),
    "closed_form.entropy_curve": ("calls", "s"),
    "closed_form.trace_entanglement": ("s",),
    "closed_form.schmidt_spectrum": ("calls", "s"),
    "oracle.build_basis": ("s",),
    "oracle.build_hamiltonian": ("s",),
    "oracle.eigensystem": ("s",),
    "oracle.evolve": ("self_s",),
    "oracle.reduced_entropy": ("calls", "s"),
}


def _m_prime(config) -> int:
    return min(config.excitations, config.dots - config.excitations)


class Tracer:
    """Install timed wrappers, record spans and counts, restore on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.search_configs: set = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _timed(self, fn, name, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += record[2] - record[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_entropy_curve(self, args, kwargs, result):
        table = args[0] if args else kwargs["table"]
        points = len(result)
        self.counts["closed_form.entropy_curve.points"] += points
        self.counts["closed_form.eval_terms"] += (
            points * (_m_prime(table.config) + 1) ** 2
        )

    def _after_find_max(self, args, kwargs, result):
        self.search_configs.add((args, tuple(sorted(kwargs.items()))))

    def _after_build_basis(self, args, kwargs, result):
        self.counts["oracle.basis_states"] += len(result)

    def _after_eigensystem(self, args, kwargs, result):
        self.counts["oracle.eigh_dim3"] += len(args[0].basis) ** 3

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        from dotent.oracle import SectorHamiltonian

        after = {
            "closed_form.entropy_curve": self._after_entropy_curve,
            "analysis.find_max": self._after_find_max,
            "oracle.build_basis": self._after_build_basis,
        }
        for module_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._replace(module, attr, self._timed(fn, name, after.get(name)))
        for module_name, attr, key in COUNTED:
            module = importlib.import_module(module_name)
            self._replace(module, attr, self._counted(getattr(module, attr), key))
        # A cached_property calls its function once per instance: the span
        # covers that eigh call, and later reads of the cache get no span.
        cached = SectorHamiltonian.__dict__["eigensystem"]
        timed = functools.cached_property(
            self._timed(cached.func, "oracle.eigensystem", self._after_eigensystem)
        )
        timed.__set_name__(SectorHamiltonian, "eigensystem")
        self._replace(SectorHamiltonian, "eigensystem", timed)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> list[float]:
        return [end - start - child for _, start, end, _, child in self.spans]

    def layer_metrics(self) -> dict[str, float]:
        """Reduce spans and counts to the per-layer metrics of one job."""
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        evals_in_search = 0
        for name, start, end, parent, child in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child
            if (
                name == "closed_form.entropy_curve"
                and parent >= 0
                and self.spans[parent][0] == "analysis.find_max"
            ):
                evals_in_search += 1
        metrics: dict[str, float] = {}
        for name, kinds in REPORTED_SPANS.items():
            values = {"calls": calls[name], "s": total[name], "self_s": own[name]}
            for kind in kinds:
                metrics[f"{name}.{kind}"] = values[kind]
        searches = calls["analysis.find_max"]
        evals = calls["closed_form.entropy_curve"]
        points = self.counts["closed_form.entropy_curve.points"]
        terms = self.counts["closed_form.eval_terms"]
        metrics.update(
            {
                "analysis.find_max.distinct_ratio": (
                    len(self.search_configs) / searches if searches else 0.0
                ),
                "analysis.evals_per_search": (
                    evals_in_search / searches if searches else 0.0
                ),
                "closed_form.entropy_curve.points": points,
                "closed_form.entropy_curve.points_per_call": (
                    points / evals if evals else 0.0
                ),
                "closed_form.eval_terms": terms,
                "closed_form.eval_ns_per_term": (
                    total["closed_form.entropy_curve"] * 1e9 / terms if terms else 0.0
                ),
                "combinatorics.binomial.calls": self.counts[
                    "combinatorics.binomial.calls"
                ],
                "oracle.basis_states": self.counts["oracle.basis_states"],
                "oracle.eigh_dim3": self.counts["oracle.eigh_dim3"],
            }
        )
        return metrics
