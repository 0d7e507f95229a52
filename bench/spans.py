"""Outside-in layer tracing for the benchmark.

A :class:`Tracer` replaces public functions at the module attributes the
pipeline calls through (``povmtomo.cli.simulate_shots``,
``povmtomo.linalg.matrix_norm``, ...) with wrappers that record one span per
call: name, start, end, parent span and op id. The code path is unchanged;
only the attribute lookup lands on the wrapper. Spans stay in memory while an
op runs and are folded into a per-op layer breakdown (calls, total time, self
time, counters) once the op has returned, outside its timed region.
"""

from __future__ import annotations

import os
import time

import povmtomo.cli
import povmtomo.distances
import povmtomo.linalg
import povmtomo.tomography

ROOT = "cli.main"


def _files(index, *suffixes):
    """Probe naming the files a call wrote or read; they are sized after the op."""

    def probe(args, kwargs, result):
        path = str(kwargs["path"] if "path" in kwargs else args[index])
        return {"files": [path + suffix for suffix in suffixes]}

    return probe


def _cells(args, kwargs, result):
    table = result[0] if isinstance(result, tuple) else result
    return {"cells_observed": len(table.counts)}


def _solver(args, kwargs, result):
    diagnostics = result[1]
    return {"iterations": diagnostics.iterations, "converged": int(diagnostics.converged)}


_counts_files = _files(0, "", ".meta.json")


def _load_counts(args, kwargs, result):
    return {**_cells(args, kwargs, result), **_counts_files(args, kwargs, result)}


# (module, attribute, span name, probe). Every entry is the attribute the
# caller resolves at call time, so wrapping it intercepts exactly the calls
# the pipeline makes and nothing else.
TARGETS = (
    (povmtomo.cli, "build_povm", "povm.build_povm", None),
    (povmtomo.cli, "build_ensemble", "frames.build_ensemble", None),
    (povmtomo.cli, "simulate_shots", "tomography.simulate_shots", _cells),
    (povmtomo.cli, "save_counts", "tomography.save_counts", _files(1, "", ".meta.json")),
    (povmtomo.cli, "load_counts", "tomography.load_counts", _load_counts),
    (povmtomo.cli, "lse_estimate", "tomography.lse_estimate", None),
    (povmtomo.cli, "project_onto_povms", "tomography.project_onto_povms", _solver),
    (povmtomo.cli, "save_povm", "povm.save_povm", _files(1, "")),
    (povmtomo.cli, "bernstein_diagnostics", "tomography.bernstein_diagnostics", None),
    (povmtomo.distances, "d_op_exact", "distances.d_op_exact", None),
    (povmtomo.distances, "d_av", "distances.d_av", None),
    (povmtomo.distances, "upper_surrogates", "distances.upper_surrogates", None),
    (povmtomo.tomography, "frame_operator", "frames.frame_operator", None),
    (povmtomo.tomography, "born", "povm.born", None),
    (povmtomo.linalg, "matrix_norm", "linalg.matrix_norm", None),
    (povmtomo.linalg, "kron", "linalg.kron", None),
)

LAYERS = (ROOT,) + tuple(name for _, _, name, _ in TARGETS)


class Tracer:
    """Span recorder; wrappers are installed only between install/uninstall."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op_id, counters]
        self._stack = []
        self._op_id = None
        self._originals = []

    def install(self):
        for module, attr, name, probe in TARGETS:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, probe))

    def uninstall(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, probe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self._op_id is None:  # calls outside an op (output checks) are not traced
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self._op_id, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if probe is not None:
                span[5] = probe(args, kwargs, result)
            return result

        return traced

    def run_op(self, op_id, call):
        """Run ``call()`` as op ``op_id`` under a root span; returns its result."""
        self.spans.clear()
        self._op_id = op_id
        root = [ROOT, 0.0, 0.0, None, op_id, None]
        self.spans.append(root)
        self._stack.append(0)
        root[1] = time.perf_counter()
        try:
            return call()
        finally:
            root[2] = time.perf_counter()
            self._stack.clear()
            self._op_id = None

    def breakdown(self):
        """Per-layer calls, ms, self ms and counters of the op just run."""
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_ms[parent] += (end - start) * 1000
        layers = {}
        for index, (name, start, end, _, _, counters) in enumerate(self.spans):
            ms = (end - start) * 1000
            layer = layers.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            layer["calls"] += 1
            layer["ms"] += ms
            layer["self_ms"] += ms - child_ms[index]
            for key, value in (counters or {}).items():
                if key == "files":
                    key, value = "bytes", sum(os.path.getsize(path) for path in value)
                layer[key] = layer.get(key, 0) + value
        return layers

    def span_records(self):
        """The op's spans as [name, start_ms, end_ms, parent, op_id] from the op start."""
        origin = self.spans[0][1]
        return [
            [name, round((start - origin) * 1000, 4), round((end - origin) * 1000, 4), parent, op]
            for name, start, end, parent, op, _ in self.spans
        ]
