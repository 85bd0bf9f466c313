"""Span tracing of lmgcycle's public functions, installed from outside.

The tracer replaces every public module-level function of the traced
modules with a wrapper, in every module namespace that holds it (so the
names that cycle, sweep and cli import are traced too).  Each call
records its function, start, end and parent span; spans stay in memory
and are written out once, when the run ends.  Counters come from call
arguments and return values, recorded only for the few functions that
need them.  Untraced runs never import this module's wrappers.
"""

from __future__ import annotations

import inspect
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

MODULES = ("core", "ensemble", "asymptotics", "special", "cycle", "sweep", "figures", "cli")


class Tracer:
    """Wraps functions, records spans, and restores the originals on close."""

    def __init__(self, package):
        self.names: list[str] = []
        # One entry per span, in typed arrays to keep millions of spans small.
        self.fid = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.info: dict[int, tuple] = {}
        self.pass_marks: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        modules = [getattr(package, m) for m in MODULES]
        wrappers = {}
        for module in modules:
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    short = module.__name__.rsplit(".", 1)[1]
                    wrappers[fn] = self._wrap(f"{short}.{name}", fn)
        for module in modules + [package]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def close(self) -> None:
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        self._patched.clear()

    def mark_pass(self) -> None:
        self.pass_marks.append(len(self.fid))

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        keep = _INFO.get(qualname)
        stack, fids, starts, ends, parents, info = (
            self._stack, self.fid, self.start, self.end, self.parent, self.info,
        )

        def wrapper(*args, **kwargs):
            index = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(index)
            starts[index] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if keep is not None:
                info[index] = keep(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: Path) -> None:
        """Save all spans as compressed arrays (names indexed by 'fid')."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fid=np.frombuffer(self.fid, dtype=np.int16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            pass_start=np.array(self.pass_marks, dtype=np.int64),
        )


def _corner_key(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    temperature = args[1] if len(args) > 1 else kwargs["temperature"]
    return (spec.n, spec.lam, temperature)


def _thermal_info(args, kwargs, result):
    pop = result.populations
    key = (result.spec.n, result.spec.lam, result.temperature)
    return key + (int(np.count_nonzero(pop)), int(pop.size))


def _size(args, kwargs, result):
    return (len(result),)


_INFO = {
    "ensemble.thermal_state": _thermal_info,
    "asymptotics.integral_state": _corner_key,
    "core.energy_levels": _size,
    "sweep.sweep_lambda1": _size,
    "sweep.derivative_records": _size,
    "cli.records_to_csv": lambda a, k, r: (len(r.encode()),),
    "cli.records_to_svg": lambda a, k, r: (len(r.encode()),),
}


def layer_metrics(
    tracer: Tracer, passes: int, factor: float, traced_wall_s: float, untraced_wall_s: float,
    busy_s: float,
) -> dict:
    """Per-layer metrics per pass, from the recorded spans and counters.

    Times are scaled to reference-speed seconds by `factor`; the two wall
    times come in already scaled.  busy_s is the measured (unscaled) sum
    of all traced query latencies.
    """
    names = tracer.names
    fid = np.frombuffer(tracer.fid, dtype=np.int16).astype(np.int64)
    start = np.frombuffer(tracer.start, dtype=np.int64)
    end = np.frombuffer(tracer.end, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = (end - start) / 1e9
    child = np.zeros(len(fid))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = (dur - child) * factor
    by_fn_self = np.bincount(fid, weights=self_s, minlength=len(names))
    by_fn_calls = np.bincount(fid, minlength=len(names))
    ids = {name: i for i, name in enumerate(names)}

    def calls(name):
        return int(by_fn_calls[ids[name]])

    def self_time(name):
        return float(by_fn_self[ids[name]])

    def spans(name):
        return np.flatnonzero(fid == ids[name])

    def module_self(module):
        return float(sum(by_fn_self[i] for n, i in ids.items() if n.startswith(module + ".")))

    def ratio(num, den):
        return num / den if den else 0.0

    run_cycle = spans("cycle.run_cycle")
    corner_ids = (ids["ensemble.thermal_state"], ids["asymptotics.integral_state"])
    corner_spans = np.flatnonzero(np.isin(fid, corner_ids) & np.isin(parent, run_cycle))
    distinct = 0
    for lo, hi in zip(tracer.pass_marks, tracer.pass_marks[1:] + [len(fid)]):
        keys = {
            (fid[i],) + tracer.info[i][:3] for i in corner_spans[(corner_spans >= lo) & (corner_spans < hi)]
        }
        distinct += len(keys)

    thermal = spans("ensemble.thermal_state")
    occupied = sum(tracer.info[i][3] for i in thermal)
    formed = sum(tracer.info[i][4] for i in thermal)
    zero_t = sum(tracer.info[i][2] == 0.0 for i in thermal)
    levels = sum(tracer.info[i][0] for i in spans("core.energy_levels"))

    derivative = spans("sweep.derivative_records")
    derivative_points = sum(tracer.info[i][0] for i in derivative)
    derivative_cycles = int(np.isin(parent[run_cycle], derivative).sum())

    log_partition = spans("asymptotics.log_partition_asymptotic")
    log_erfc_parents = parent[fid == ids["special.log_erfc"]]
    tail = int(np.isin(log_partition, log_erfc_parents).sum())

    emitted = [i for n in ("cli.records_to_csv", "cli.records_to_svg") for i in spans(n)]
    special = ("special.erf", "special.erfc", "special.log_erfc")

    per_pass = {
        "cycle.run_cycle.calls": calls("cycle.run_cycle"),
        "cycle.run_cycle.self_s": self_time("cycle.run_cycle"),
        "ensemble.thermal_state.calls": calls("ensemble.thermal_state"),
        "ensemble.thermal_state.self_s": self_time("ensemble.thermal_state"),
        "sweep.sweep_lambda1.self_s": self_time("sweep.sweep_lambda1"),
        "sweep.points": sum(tracer.info[i][0] for i in spans("sweep.sweep_lambda1")),
        "sweep.derivative_records.self_s": self_time("sweep.derivative_records"),
        "sweep.detect_peaks.self_s": self_time("sweep.detect_peaks"),
        "core.energy_levels.calls": calls("core.energy_levels"),
        "core.energy_levels.self_s": self_time("core.energy_levels"),
        "core.levels_formed": levels,
        "core.level_bytes_computed": 8 * levels,
        "core.ground_set.calls": calls("core.ground_set"),
        "asymptotics.integral_state.calls": calls("asymptotics.integral_state"),
        "asymptotics.integral_state.self_s": self_time("asymptotics.integral_state"),
        "asymptotics.log_partition.calls": calls("asymptotics.log_partition_asymptotic"),
        "special.calls": sum(calls(n) for n in special),
        "special.self_s": sum(self_time(n) for n in special),
        "figures.figure_sweep.self_s": self_time("figures.figure_sweep"),
        "cli.main.self_s": self_time("cli.main"),
        "cli.records_to_csv.self_s": self_time("cli.records_to_csv"),
        "cli.records_to_svg.self_s": self_time("cli.records_to_svg"),
        "cli.bytes_written": sum(tracer.info[i][0] for i in emitted),
        "cli.files_written": len(emitted),
    }
    for module in MODULES:
        per_pass[f"{module}.self_s"] = module_self(module)
    out = {k: v / passes for k, v in per_pass.items()}
    out.update(
        {
            "cycle.corner_evals_per_cycle": ratio(len(corner_spans), len(run_cycle)),
            "cycle.distinct_corner_ratio": ratio(distinct, len(corner_spans)),
            "sweep.cycles_per_derivative_point": ratio(derivative_cycles, derivative_points),
            "ensemble.occupied_ratio": ratio(occupied, formed),
            "ensemble.zero_t_share": ratio(zero_t, len(thermal)),
            "asymptotics.log_partition_per_state": ratio(
                len(log_partition), calls("asymptotics.integral_state")
            ),
            "special.tail_share": ratio(tail, len(log_partition)),
            "trace.overhead_ratio": ratio(traced_wall_s, untraced_wall_s),
            # Share of the traced queries' time spent inside lmgcycle's
            # public calls: outermost spans over busy time, both measured.
            "trace.covered_share": ratio(float(dur[~has_parent].sum()), busy_s),
        }
    )
    return out
