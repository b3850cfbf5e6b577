"""Per-layer tracing of aaqpt, done from outside the package.

:meth:`Tracer.install` replaces each public module-level function of the
``aaqpt`` modules, at every namespace that holds it (``aaqpt.extract``,
``aaqpt.tomography.extract`` and ``aaqpt.extraction.extract`` are one
function looked up in three places), with a wrapper that records a span.

A call opens a span when it enters a module from outside it, or when the
function has a metric of its own (:data:`GROUPS`).  Other calls inside a
module fold into the span already open there, so ``is_faithful`` includes
the realignment and SVD it does through helpers of its own module, while
the ``as_matrix`` it reaches in ``qstate`` is a span of its own.  A span's
self time is its duration minus the durations of the spans it opened.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

MODULES = (
    "qstate",
    "realignment",
    "channel",
    "extraction",
    "catalog",
    "tomography",
    "serialize",
    "cli",
    "sampling",
)

#: Functions whose self time and call count are reported under a metric
#: name.  ``_tomograph`` is private but it is the step whose self time is
#: the multinomial sampling, so it is wrapped too.
GROUPS = {
    ("tomography", "run_exact"): "tomography.run_exact",
    ("tomography", "exact_pauli_probabilities"): "tomography.born_table",
    ("tomography", "_tomograph"): "tomography.sample",
    ("tomography", "linear_inversion"): "tomography.linear_inversion",
    ("tomography", "project_to_state"): "tomography.project",
    ("realignment", "is_faithful"): "realignment.is_faithful",
    ("realignment", "ccnr_sum"): "realignment.ccnr_sum",
    ("realignment", "ppt_min_eigenvalue"): "realignment.ppt_min_eigenvalue",
    ("extraction", "extract"): "extraction.extract",
    ("extraction", "reachable_report"): "extraction.reachable_report",
    ("channel", "apply_extended"): "channel.apply_extended",
    ("channel", "propagate"): "channel.propagate",
    ("channel", "superop_to_choi"): "channel.superop_to_choi",
    ("qstate", "validate_density"): "qstate.validate_density",
    ("qstate", "fidelity"): "qstate.fidelity",
    ("cli", "main"): "cli.main_self",
}


def group_of(module: str, name: str) -> str | None:
    """Metric group of ``aaqpt.<module>.<name>``, or None if it has none."""
    if (module, name) in GROUPS:
        return GROUPS[(module, name)]
    if module == "serialize" and name.endswith("_from_json"):
        return "serialize.load"
    if module == "serialize" and name.endswith("_to_json"):
        return "serialize.dump"
    if module == "catalog":
        return "catalog.build"
    return None


class Tracer:
    """Span recorder over wrapped aaqpt functions.

    ``self_ns[key]`` and ``calls[key]`` accumulate while the wrappers are
    installed; ``key`` is the metric group, or ``module.function`` for a
    function without one.
    """

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._namespaces: list = []
        self.missing: list[str] = []

    def _wrap(self, fn, module: str, name: str):
        group = group_of(module, name)
        key = group or f"{module}.{name}"
        stack, self_ns, calls = self._stack, self.self_ns, self.calls
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if group is None and stack and stack[-1][0] == module:
                return fn(*args, **kwargs)
            frame = [module, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[key] += elapsed - frame[1]
                calls[key] += 1
                if stack:
                    stack[-1][1] += elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _build(self) -> list:
        namespaces = [importlib.import_module("aaqpt")]
        wrapped = set()
        for module in MODULES:
            mod = importlib.import_module(f"aaqpt.{module}")
            namespaces.append(mod)
            for name, obj in vars(mod).items():
                public = not name.startswith("_") or (module, name) in GROUPS
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._wrappers[id(obj)] = self._wrap(obj, module, name)
                    wrapped.add((module, name))
        self.missing = [f"aaqpt.{m}.{n}" for m, n in GROUPS if (m, n) not in wrapped]
        return namespaces

    def install(self) -> None:
        """Wrap every traced function wherever a namespace refers to it."""
        if not self._namespaces:
            self._namespaces = self._build()
        for ns in self._namespaces:
            for attr, obj in list(vars(ns).items()):
                # the originals stay alive in the wrappers, so no other
                # object can share one of their ids
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(ns, attr, wrapper)
                    self._patches.append((ns, attr, obj))

    def uninstall(self) -> None:
        """Put every original function back."""
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()
