"""In-memory spans around every public function of the resistnet layers.

``Tracer.install`` wraps each public function of the seven layer modules
and rebinds the wrapper at every module binding of that function, so a
call through ``from .network import build_network`` inside ``lattice`` is
caught as well as one through ``network.build_network``.  A span records
name, start, end, parent span and job id; spans stay in memory until
``write`` puts them in a JSON-lines file.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "network", "spectral", "exact", "lattice", "identities", "golden")

# metric -> span names it adds up; nested spans of the same metric count once
TIME_METRICS = {
    "lattice.resistance_s": ("lattice.resistance",),
    "lattice.make_s": ("lattice.make_lattice",),
    "spectral.decompose_s": ("spectral.decompose",),
    "spectral.query_s": ("spectral.two_point_resistance",),
    "spectral.table_s": ("spectral.resistance_matrix",),
    "network.assemble_s": ("network.assemble_laplacian",),
    "network.build_s": ("network.build_network",),
    "exact.solve_s": ("exact.solve_exact",),
    "exact.table_s": ("exact.exact_resistance_matrix",),
    "cli.main_s": ("cli.main",),
    "cli.parse_s": (
        "cli.build_parser",
        "cli.load_network",
        "cli.parse_network_json",
        "cli.parse_network_text",
        "cli.parse_resistance_literal",
        "cli.parse_coords",
        "cli.parse_dims",
        "cli.parse_rational_option",
        "cli.boundary_condition_for",
    ),
    "cli.render_s": ("cli.render_report",),
    "identities.quad_s": ("identities.r_infinite_2d", "identities.r_infinite_3d"),
    "golden.reproduce_s": ("golden.reproduce_all",),
}
CALL_METRICS = {
    "lattice.resistance_calls": "lattice.resistance",
    "spectral.decompose_calls": "spectral.decompose",
    "exact.solve_calls": "exact.solve_exact",
}


def _digits(value: int) -> int:
    return len(str(abs(value)))


def _count_resistance(tracer, args, result) -> None:
    spec = args[0]
    if len(spec.dims) > 1:  # 1D wraps have O(1) closed forms, no mode sum
        tracer.counts["lattice.mode_terms"] += spec.n_nodes - 1


def _count_decompose(tracer, args, result) -> None:
    tracer.counts["spectral.eigh_n3"] += result.n**3


def _count_assemble(tracer, args, result) -> None:
    tracer.counts["network.dense_bytes"] += result.matrix.nbytes
    tracer.counts["network.nonzeros"] += int(np.count_nonzero(result.matrix))
    tracer.counts["network.entries"] += result.matrix.size


def _count_solve(tracer, args, result) -> None:
    tracer.den_digits_max = max(tracer.den_digits_max, _digits(result.denominator))


def _count_table(tracer, args, result) -> None:
    for row in result:
        for value in row:
            tracer.den_digits_max = max(tracer.den_digits_max, _digits(value.denominator))


COUNTERS = {
    "lattice.resistance": _count_resistance,
    "spectral.decompose": _count_decompose,
    "network.assemble_laplacian": _count_assemble,
    "exact.solve_exact": _count_solve,
    "exact.exact_resistance_matrix": _count_table,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, job id]
        self.job: str | None = None
        self.counts: Counter = Counter()
        self.den_digits_max = 0
        self._stack: list[int] = []
        self._typed: type = Exception

    def install(self, package: str = "resistnet") -> None:
        """Wrap every public layer function at all its module bindings."""
        self._typed = sys.modules[f"{package}.errors"].ResistnetError
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}", layer))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.den_digits_max = 0

    def _wrap(self, func, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            except Exception as err:
                self._error(err, layer)
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        return wrapper

    def _error(self, err: Exception, layer: str) -> None:
        """Count an exception once, at the innermost layer it left."""
        if getattr(err, "_perfbench_counted", False):
            return
        err._perfbench_counted = True
        kind = "typed" if isinstance(err, self._typed) else "untyped"
        self.counts[f"{layer}.errors_{kind}"] += 1

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        """Per-job totals of every layer metric, with self times.

        A span's self time is its duration minus the part covered by its
        descendants from other layers (the first foreign span on each path
        down); spans of the same layer nested inside it count as its own.
        """
        spans = self.spans
        children = defaultdict(list)
        by_name = defaultdict(list)
        for index, span in enumerate(spans):
            by_name[span[0]].append(index)
            if span[3] >= 0:
                children[span[3]].append(index)

        def layer(i):
            return spans[i][0].split(".", 1)[0]

        def duration(i):
            return spans[i][2] - spans[i][1]

        def foreign(i):
            total, todo, own = 0.0, list(children[i]), layer(i)
            while todo:
                c = todo.pop()
                if layer(c) == own:
                    todo.extend(children[c])
                else:
                    total += duration(c)
            return total

        def nested(i, names):
            parent = spans[i][3]
            while parent >= 0:
                if spans[parent][0] in names:
                    return True
                parent = spans[parent][3]
            return False

        per_job = 1.0 / max(jobs, 1)
        out: dict[str, float] = {}
        for metric, names in TIME_METRICS.items():
            total = own = 0.0
            for name in names:
                for i in by_name.get(name, ()):
                    if not nested(i, names):
                        total += duration(i)
                        own += duration(i) - foreign(i)
            out[metric] = total * per_job
            out[metric[: -len("_s")] + "_self_s"] = own * per_job
        for metric, name in CALL_METRICS.items():
            out[metric] = len(by_name.get(name, ())) * per_job
        counts = self.counts
        out["lattice.mode_terms"] = counts["lattice.mode_terms"] * per_job
        out["spectral.eigh_n3"] = counts["spectral.eigh_n3"] * per_job
        out["network.dense_mb"] = counts["network.dense_bytes"] / 1e6 * per_job
        out["network.dense_fill"] = (
            counts["network.nonzeros"] / counts["network.entries"] if counts["network.entries"] else 0.0
        )
        out["exact.den_digits_max"] = float(self.den_digits_max)
        for name in LAYERS:
            for kind in ("typed", "untyped"):
                out[f"{name}.errors_{kind}"] = counts[f"{name}.errors_{kind}"] * per_job
        out["trace.spans_per_job"] = len(spans) * per_job
        return out
