"""Span tracer installed around trigspec's public functions from outside.

`Tracer.install` wraps every public function of the layer modules and
rebinds the wrapper in every ``trigspec.*`` namespace that bound the
original (``trig_spline.discrete_coeffs``, ``filon_oracle.spline_fourier_coeff``,
the package namespace, ...). Callers inside the package look those names
up at call time, so nested calls are traced too.

A span carries its name, start, end, parent span and job id. Self time is
the span's duration minus the time covered by its child spans. Calls and
computed work counts are only accumulated while ``counting`` is set, so a
run can count one fixed set of jobs and time many.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

# Layer modules, named as the package names them; metric names drop the
# leading underscore because a metric name must start with a letter.
MODULES = (
    "cli",
    "sampling",
    "_kernels",
    "signal_model",
    "spline_kernel",
    "_series",
    "trig_spline",
    "alias_analysis",
    "filon_oracle",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _dft_mults(args, kwargs):
    N = np.size(_arg(args, kwargs, 0, "values"))
    return 2 * ((N - 1) // 2) * N


# Computed work per call (labelled as computed, not measured):
# term_points = J*P, mults = 2nN, values = len(q), points = grid or point count.
WORK = {
    "series.hurwitz_tail": ("values", lambda a, k: np.size(_arg(a, k, 1, "q"))),
    "kernels.synth": (
        "term_points",
        lambda a, k: np.size(_arg(a, k, 1, "coeff_a")) * np.size(_arg(a, k, 3, "t")),
    ),
    "kernels.dft": ("mults", _dft_mults),
    "trig_spline.values_on_uniform_grid": ("points", lambda a, k: int(_arg(a, k, 1, "points"))),
    "trig_spline.spline_eval": ("points", lambda a, k: np.size(_arg(a, k, 1, "t"))),
}

# counted span -> ancestor span: calls of the first made under the second.
NESTED = {
    "series.progression_tail": "trig_spline.build_spline",
    "trig_spline.values_on_uniform_grid": "filon_oracle.quad_fourier_coeff",
    "signal_model.evaluate": "filon_oracle.quad_fourier_coeff",
}

MAX_SPANS = 20_000  # spans kept for writing out; later ones are only counted


def _targets(package):
    """Map id(original function) -> (span name, function)."""
    found = {}
    for short in MODULES:
        mod = importlib.import_module(f"{package}.{short}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            # _kernels re-exports the selected backend's functions.
            if short == "_kernels" or obj.__module__ == mod.__name__:
                found.setdefault(id(obj), (f"{short.lstrip('_')}.{name}", obj))
    return found


def _package_modules(package):
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


class Tracer:
    def __init__(self):
        self.on = False
        self.counting = False
        self.job = None
        self.spans = None  # list of span tuples while recording
        self.spans_dropped = 0
        self.calls = Counter()
        self.errors = Counter()
        self.work = Counter()
        self.nested = Counter()
        self.self_s = Counter()
        self._stack = []
        self._next_id = 0
        self._originals = {}

    # -- installation -------------------------------------------------------

    def install(self, package="trigspec"):
        targets = _targets(package)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod in _package_modules(package):
            for attr, val in list(vars(mod).items()):
                if id(val) in targets and targets[id(val)][1] is val:
                    setattr(mod, attr, wrappers[id(val)])
        self._originals = targets
        missed = self.unwrapped_bindings(package)
        if missed:
            raise RuntimeError(f"tracer left original functions bound: {missed}")
        return sorted(name for name, _ in targets.values())

    def unwrapped_bindings(self, package="trigspec"):
        """Namespace bindings that still reach an original, unwrapped function."""
        return [
            f"{mod.__name__}.{attr}"
            for mod in _package_modules(package)
            for attr, val in vars(mod).items()
            if id(val) in self._originals and self._originals[id(val)][1] is val
        ]

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            return tracer._call(name, fn, args, kwargs)

        return wrapper

    # -- recording ----------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [name, 0.0, span_id]
        stack.append(frame)
        ok = False
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            if parent is not None:
                parent[1] += dur
            self.self_s[name] += dur - frame[1]
            if self.counting:
                self._count(name, args, kwargs, ok)
            if self.spans is not None:
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(
                        (span_id, name, start, end, None if parent is None else parent[2], self.job)
                    )
                else:
                    self.spans_dropped += 1

    def _count(self, name, args, kwargs, ok):
        self.calls[name] += 1
        if not ok:
            self.errors[name] += 1
        if name in WORK:
            key, fn = WORK[name]
            self.work[f"{name}.{key}"] += int(fn(args, kwargs))
        ancestor = NESTED.get(name)
        if ancestor is not None and any(f[0] == ancestor for f in self._stack):
            self.nested[(name, ancestor)] += 1

    def counted(self, fn, *args):
        """Call fn traced and counted, whatever the current switches say."""
        saved = self.on, self.counting
        self.on, self.counting = True, True
        try:
            return fn(*args)
        finally:
            self.on, self.counting = saved

    def reset(self):
        self.calls.clear()
        self.errors.clear()
        self.work.clear()
        self.nested.clear()
        self.self_s.clear()

    def counts(self):
        """Snapshot of every count, for the repeat check."""
        return (
            dict(self.calls),
            dict(self.errors),
            dict(self.work),
            {f"{c}<{a}": v for (c, a), v in self.nested.items()},
        )
