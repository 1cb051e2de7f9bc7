"""Span tracer for the traced benchmark run.

The tracer wraps kvwave functions at the attributes through which kvwave
itself calls them (a module global, or a method on its class), so the real
``cli.execute`` and ``cli.write_outputs`` run unchanged while every call
through a wrapped attribute becomes a span.  Untraced runs patch nothing.

A span's self time is its duration minus the time covered by its child spans.
Spans of functions called once or more per time step are kept only as
counts, self time and a log2 duration histogram; every other span is also
recorded whole as (run id, span id, parent id, name, start ns, end ns).
"""

from __future__ import annotations

import functools
import itertools
import os
import time
import weakref

PER_STEP = frozenset({
    "schemes.advance",
    "linalg.solve",
    "diagnostics.total_energy",
    "diagnostics.dissipation_increment",
})


class Stat:
    """Aggregate of every span of one name."""

    __slots__ = ("calls", "total_ns", "self_ns", "hist", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.hist = [0] * 64  # bucket k holds durations in [2**(k-1), 2**k) ns
        self.counts: dict[str, int] = {}


def operator_bytes(ops, n: int) -> int:
    """Bytes one advance touches, computed from array sizes.

    Counts every array held directly by the operator object and by its
    left-hand factors, plus the three layers of n float64 values that the
    step reads and writes.  Cache misses are not counted.
    """
    held = list(vars(ops).values())
    factor = getattr(ops, "lhs_factor", None)
    if factor is not None:
        held += list(vars(factor).values())
    return sum(v.nbytes for v in held if hasattr(v, "nbytes") and hasattr(v, "dtype")) + 24 * n


def _count_advance_bytes():
    last = [None, 0]  # weak reference to the last operator seen, its bytes per call

    def count(stat: Stat, args, kwargs, result) -> None:
        ops = args[0]
        if last[0] is None or last[0]() is not ops:
            last[0] = weakref.ref(ops)
            last[1] = operator_bytes(ops, result.size)
        stat.counts["bytes"] = stat.counts.get("bytes", 0) + last[1]

    return count


def _count_energy_rows(stat: Stat, args, kwargs, result) -> None:
    stat.counts["rows"] = stat.counts.get("rows", 0) + len(result[2])


def _count_csv(stat: Stat, args, kwargs, result) -> None:
    trace, path = args  # write_outputs passes both positionally
    stat.counts["rows"] = stat.counts.get("rows", 0) + len(trace)
    stat.counts["bytes"] = stat.counts.get("bytes", 0) + os.path.getsize(path)


def targets(kvwave) -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, counter) for every wrapped function.

    The owner is where kvwave looks the function up at call time, e.g.
    ``cli.run`` because ``cli.execute`` calls the name ``run`` it imported.
    """
    cli, schemes, linalg, diagnostics = kvwave.cli, kvwave.schemes, kvwave.linalg, kvwave.diagnostics
    return [
        ("cli.execute", cli, "execute", None),
        ("cli.write_outputs", cli, "write_outputs", None),
        ("mesh.build_mesh", cli, "build_mesh", None),
        ("schemes.run", cli, "run", None),
        ("schemes.build_operators", schemes, "build_operators", None),
        ("mesh.flux_coefficients", schemes, "flux_coefficients", None),
        ("linalg.factor", linalg, "factor", None),
        ("linalg.solve", linalg, "solve", None),
        ("model.sample_cell_averages", schemes, "sample_cell_averages", None),
        ("schemes.bootstrap", schemes, "bootstrap_explicit", None),
        ("schemes.bootstrap", schemes, "bootstrap_implicit", None),
        ("schemes.advance", schemes.SchemeOperators, "advance", _count_advance_bytes()),
        ("diagnostics.layer_energies", diagnostics, "layer_energies", _count_energy_rows),
        ("diagnostics.total_energy", diagnostics, "total_energy", None),
        ("diagnostics.dissipation_increment", diagnostics, "dissipation_increment", None),
        ("diagnostics.fit", diagnostics, "fit_exponential", None),
        ("diagnostics.fit", diagnostics, "fit_polynomial", None),
        ("cli.write_energy_csv", cli, "write_energy_csv", _count_csv),
        ("cli.write_snapshot_csv", cli, "write_snapshot_csv", None),
        ("cli.write_summary", cli, "write_summary", None),
    ]


def _lookup(owner, attr: str):
    # A class attribute is read from the class dict so that the plain
    # function, not a bound or unbound wrapper, is saved and restored.
    if isinstance(owner, type):
        return vars(owner).get(attr)
    return getattr(owner, attr, None)


class Tracer:
    """Installs span wrappers on kvwave; use as a context manager.

    ``run_id`` names the workload run that new spans belong to.  Targets
    kvwave no longer has are listed in ``missing`` and read as zero.
    """

    def __init__(self, kvwave) -> None:
        self.kvwave = kvwave
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[str, int, int, str, int, int]] = []
        self.run_id = ""
        self.missing: list[str] = []
        self.patched: list[tuple[object, str, object]] = []
        self._stack: list[list[int]] = []
        self._ids = itertools.count(1)

    def __enter__(self) -> "Tracer":
        for name, owner, attr, counter in targets(self.kvwave):
            original = _lookup(owner, attr)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            setattr(owner, attr, self._wrap(name, original, counter))
            self.patched.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Wrapped attributes that do not hold their original function."""
        return [
            f"{owner.__name__}.{attr}"
            for owner, attr, original in self.patched
            if _lookup(owner, attr) is not original
        ]

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def _wrap(self, name: str, fn, counter):
        stat = self.stats.setdefault(name, Stat())
        stack, ids, clock = self._stack, self._ids, time.perf_counter_ns
        spans = None if name in PER_STEP else self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0, next(ids)]  # child time, span id
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - frame[0]
                stat.hist[elapsed.bit_length()] += 1
                if spans is not None:
                    spans.append((tracer.run_id, frame[1], parent, name, start, end))
            if counter is not None:
                counter(stat, args, kwargs, result)
            return result

        return traced


# Per-layer metrics: name -> unit.  Counts and times are per workload
# iteration (one pass over the workload's runs).
LAYER_UNITS = {
    "schemes.advance.calls": "count",
    "schemes.advance.us_per_call": "us",
    "schemes.advance.self_us_per_call": "us",
    "schemes.advance.bytes_computed": "bytes",
    "schemes.advance.achieved_gbs": "GB/s",
    "schemes.advance.bw_fraction": "ratio",
    "linalg.solve.calls": "count",
    "linalg.solve.us_per_call": "us",
    "schemes.run.self_s": "s",
    "schemes.build_operators.busy_s": "s",
    "linalg.factor.calls": "count",
    "linalg.factor.busy_s": "s",
    "mesh.build_mesh.busy_s": "s",
    "mesh.flux_coefficients.busy_s": "s",
    "model.sample_cell_averages.busy_s": "s",
    "schemes.bootstrap.busy_s": "s",
    "diagnostics.layer_energies.calls": "count",
    "diagnostics.layer_energies.rows": "count",
    "diagnostics.layer_energies.busy_s": "s",
    "diagnostics.total_energy.calls": "count",
    "diagnostics.total_energy.busy_s": "s",
    "diagnostics.dissipation_increment.calls": "count",
    "diagnostics.dissipation_increment.busy_s": "s",
    "diagnostics.energy_evals_per_recorded_row": "ratio",
    "diagnostics.fit.calls": "count",
    "diagnostics.fit.busy_s": "s",
    "cli.write_energy_csv.rows": "count",
    "cli.write_energy_csv.bytes": "bytes",
    "cli.write_energy_csv.busy_s": "s",
    "cli.write_snapshot_csv.busy_s": "s",
    "cli.write_summary.busy_s": "s",
    "cli.files_written": "count",
    "mem_bw_probe_gbs": "GB/s",
    "trace_overhead_pct": "%",
}


def layer_metrics(tracer: Tracer, iterations: int, bw_gbs: float, overhead_pct: float) -> dict[str, float]:
    """Every metric of LAYER_UNITS from the spans of `iterations` traced passes."""
    s = tracer.stat

    def per_iter(value: float) -> float:
        return value / iterations

    def busy_s(name: str) -> float:
        return per_iter(s(name).total_ns / 1e9)

    def us_per_call(ns: int, calls: int) -> float:
        return ns / calls / 1e3 if calls else 0.0

    adv, solve, energies = s("schemes.advance"), s("linalg.solve"), s("diagnostics.layer_energies")
    csv = s("cli.write_energy_csv")
    adv_bytes = adv.counts.get("bytes", 0)
    achieved = adv_bytes / adv.total_ns if adv.total_ns else 0.0  # bytes/ns = GB/s
    evals = s("diagnostics.total_energy").calls + energies.counts.get("rows", 0)
    recorded = csv.counts.get("rows", 0)
    files = csv.calls + s("cli.write_snapshot_csv").calls + s("cli.write_summary").calls
    metrics = {
        "schemes.advance.calls": per_iter(adv.calls),
        "schemes.advance.us_per_call": us_per_call(adv.total_ns, adv.calls),
        "schemes.advance.self_us_per_call": us_per_call(adv.self_ns, adv.calls),
        "schemes.advance.bytes_computed": per_iter(adv_bytes),
        "schemes.advance.achieved_gbs": achieved,
        "schemes.advance.bw_fraction": achieved / bw_gbs if bw_gbs else 0.0,
        "linalg.solve.calls": per_iter(solve.calls),
        "linalg.solve.us_per_call": us_per_call(solve.total_ns, solve.calls),
        "schemes.run.self_s": per_iter(s("schemes.run").self_ns / 1e9),
        "schemes.build_operators.busy_s": busy_s("schemes.build_operators"),
        "linalg.factor.calls": per_iter(s("linalg.factor").calls),
        "linalg.factor.busy_s": busy_s("linalg.factor"),
        "mesh.build_mesh.busy_s": busy_s("mesh.build_mesh"),
        "mesh.flux_coefficients.busy_s": busy_s("mesh.flux_coefficients"),
        "model.sample_cell_averages.busy_s": busy_s("model.sample_cell_averages"),
        "schemes.bootstrap.busy_s": busy_s("schemes.bootstrap"),
        "diagnostics.layer_energies.calls": per_iter(energies.calls),
        "diagnostics.layer_energies.rows": per_iter(energies.counts.get("rows", 0)),
        "diagnostics.layer_energies.busy_s": busy_s("diagnostics.layer_energies"),
        "diagnostics.total_energy.calls": per_iter(s("diagnostics.total_energy").calls),
        "diagnostics.total_energy.busy_s": busy_s("diagnostics.total_energy"),
        "diagnostics.dissipation_increment.calls": per_iter(s("diagnostics.dissipation_increment").calls),
        "diagnostics.dissipation_increment.busy_s": busy_s("diagnostics.dissipation_increment"),
        "diagnostics.energy_evals_per_recorded_row": evals / recorded if recorded else 0.0,
        "diagnostics.fit.calls": per_iter(s("diagnostics.fit").calls),
        "diagnostics.fit.busy_s": busy_s("diagnostics.fit"),
        "cli.write_energy_csv.rows": per_iter(recorded),
        "cli.write_energy_csv.bytes": per_iter(csv.counts.get("bytes", 0)),
        "cli.write_energy_csv.busy_s": busy_s("cli.write_energy_csv"),
        "cli.write_snapshot_csv.busy_s": busy_s("cli.write_snapshot_csv"),
        "cli.write_summary.busy_s": busy_s("cli.write_summary"),
        "cli.files_written": per_iter(files),
        "mem_bw_probe_gbs": bw_gbs,
        "trace_overhead_pct": overhead_pct,
    }
    return metrics
