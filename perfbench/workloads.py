"""The three benchmark workloads: inputs, one timed pass, and output checks.

Each workload is a closed loop with a single caller: the next top-level
call starts when the previous one returns.  A pass is a fixed set of
top-level calls ("queries"); run.py repeats passes for the measured
time.  Workloads reach lmgcycle only through module attributes looked up
at call time, so the traced run sees every call through its wrappers.

catalogue      the paper-reproduction path: all 18 presets through the
               CLI, then the acceptance suite's peak and derivative
               analysis.  Per-point Python overhead in cycle, ensemble
               and sweep dominates; CSV/SVG emission rides along.
large_n        exact sweeps at N = 1e4, 1e5, 1e6 (level arrays of 80 KB,
               800 KB and 8 MB) and the same specs on the asymptotic
               backend.  O(N) numpy work in core and ensemble dominates.
point_queries  10k independent calls, each with its own parameters, the
               way the cycle and thermal verbs are used.  Exercises the
               same cycle and ensemble layers one call at a time, and is
               where asymptotics and special do most of their work.
"""

from __future__ import annotations

import contextlib
import io
import lzma
import json
import shutil
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

CSV_HEADER = "lambda1,eta,eta_carnot,work,q_h,q_ab,q_bc,q_cd,q_da,s_a,s_b,s_c,s_d"
CSV_COLUMNS = CSV_HEADER.replace("eta,", "efficiency,").split(",")
RECORD_FIELDS = tuple(CSV_COLUMNS)

PEAK_IDS = ("3a", "4a", "4b", "4c", "4d")
DERIVATIVE_IDS = ("5a", "5d")
DERIVATIVE_STEP = 1e-3


@dataclass
class Pass:
    """What one timed pass did, and what its output checks found.

    wall_s is the caller's busy time: the sum of the query latencies.
    """

    wall_s: float
    latencies_s: list[float]
    kinds: list[str]
    rows: int
    cycles: int
    # Reference-speed seconds per measured second of each query (see
    # calibration.py); run.py fills these in.
    factors: list[float] = field(default_factory=list)
    samples: list[tuple[float, ...]] = field(default_factory=list)
    failed_ops: int = 0
    strict_misses: int = 0
    # Passing outputs that only the series-erf allowance admits (oracle.py).
    admitted: int = 0
    notes: list[str] = field(default_factory=list)


def _records_matrix(records) -> dict[str, np.ndarray]:
    cols = {f: np.array([getattr(r, f) for r in records], dtype=np.float64) for f in RECORD_FIELDS}
    cols["is_engine"] = np.array([r.is_engine for r in records])
    return cols


def _load_reference(name: str) -> dict:
    with lzma.open(REFERENCE_DIR / name, "rt") as handle:
        return json.load(handle)


def _reference_rows(rows: list[list[float]]) -> dict[str, np.ndarray]:
    matrix = np.array(rows, dtype=np.float64).reshape(-1, len(RECORD_FIELDS))
    return {f: matrix[:, i] for i, f in enumerate(RECORD_FIELDS)}


def _scales(backend: str, n: int, t_hot: float, t_cold: float, lambda2: float, grid,
            allowance=True) -> dict:
    grid = np.asarray(grid, dtype=np.float64)
    ones = np.ones_like(grid)
    return oracle.cycle_reference(backend, n * np.ones(grid.shape, dtype=np.int64), t_hot * ones,
                                  t_cold * ones, grid, lambda2 * ones, 0.0 * ones, allowance)


class _ProbeSink(io.StringIO):
    """Captures the CLI's progress lines and probes the calibration at each."""

    def __init__(self, meter):
        super().__init__()
        self.meter = meter

    def write(self, text: str) -> int:
        if "\n" in text:
            self.meter.probe()
        return super().write(text)


# ---------------------------------------------------------------------------


class Catalogue:
    """`lmgcycle figures --format both` over all presets, then the analysis."""

    kernel = "interpreter"
    query_kernels: dict[str, str] = {}
    # A calibration.Calibration, set by run.py before the timed passes.
    meter = None

    def __init__(self, lmg, workdir: Path, seed: int):
        self.lmg = lmg
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        # The seed orders the analysis units that follow the CLI call.
        units = list(PEAK_IDS) + list(DERIVATIVE_IDS)
        self.order = [units[i] for i in rng.permutation(len(units))]
        self.reference = _load_reference("catalogue.json.xz")
        figures = lmg.figures
        self.presets = {fid: figures.figure_preset(fid) for fid in figures.figure_ids()}
        csv_rows = sum(p.grid_points for p in self.presets.values())
        analysis_rows = sum(self.presets[f].grid_points for f in PEAK_IDS)
        derivative_rows = sum(self.presets[f].grid_points for f in DERIVATIVE_IDS)
        self.rows = csv_rows + analysis_rows + derivative_rows
        self.cycles = csv_rows + analysis_rows + 2 * derivative_rows
        self._scale_cache: dict | None = None

    def warm_up(self) -> None:
        out = self.workdir / "warm"
        out.mkdir(parents=True, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            self.lmg.cli.main(["figures", "--figure", "7b", "--out", str(out / "fig7b"), "--format", "both"])
        records = self.lmg.figures.run_figure("7b")
        self.lmg.sweep.detect_peaks(records)
        self.lmg.sweep.derivative_records(self.lmg.figures.figure_sweep("7b"))
        shutil.rmtree(out, ignore_errors=True)

    def run_pass(self, index: int) -> Pass:
        cli, figures, sweep = self.lmg.cli, self.lmg.figures, self.lmg.sweep
        out = self.workdir / f"pass{index}"
        lat: list[float] = []
        kinds: list[str] = []
        results: dict = {}
        meter = self.meter
        # The CLI reports each file it writes; the sink takes a calibration
        # sample there, so the long call is calibrated from inside.
        with contextlib.redirect_stdout(_ProbeSink(meter)):
            t = perf_counter()
            results["rc"] = cli.main(["figures", "--out", str(out), "--format", "both"])
            lat.append(meter.end_query(perf_counter() - t))
        kinds.append("cli.main")
        for unit in self.order:
            if unit in PEAK_IDS:
                t = perf_counter()
                if unit == "3a":
                    records = figures.run_figure(unit)
                else:
                    records = sweep.sweep_lambda1(figures.figure_sweep(unit))
                lat.append(meter.end_query(perf_counter() - t))
                t = perf_counter()
                peaks = sweep.detect_peaks(records)
                lat.append(meter.end_query(perf_counter() - t))
                kinds += ["sweep", "detect_peaks"]
                results[unit] = (records, peaks)
            else:
                t = perf_counter()
                results[unit] = sweep.derivative_records(figures.figure_sweep(unit))
                lat.append(meter.end_query(perf_counter() - t))
                kinds.append("derivative_records")
        done = Pass(sum(lat), lat, kinds, self.rows, self.cycles)
        self._check(done, out, results)
        return done

    # -- checks ------------------------------------------------------------

    def _preset_scales(self) -> dict:
        if self._scale_cache is None:
            cache = {}
            for fid, p in self.presets.items():
                grid = np.linspace(0.0, p.lambda2, p.grid_points)
                cache[fid] = oracle.with_efficiency(
                    _scales("exact", p.n, p.t_hot, p.t_cold, p.lambda2, grid)
                )
            for fid in DERIVATIVE_IDS:
                p = self.presets[fid]
                grid = np.linspace(0.0, p.lambda2, p.grid_points)
                hi = np.minimum(grid + DERIVATIVE_STEP, p.lambda2)
                lo = np.maximum(grid - DERIVATIVE_STEP, 0.0)
                tol = sum(
                    oracle.eta_tolerance(ref, ref, oracle.RTOL_EXACT)
                    for ref in (
                        oracle.with_efficiency(_scales("exact", p.n, p.t_hot, p.t_cold, p.lambda2, g))
                        for g in (hi, lo)
                    )
                )
                cache["d" + fid] = tol / (hi - lo)
            self._scale_cache = cache
        return self._scale_cache

    def _check_rows(self, fid: str, got: dict) -> tuple[bool, int]:
        ref = _reference_rows(self.reference["presets"][fid])
        if len(got["work"]) != len(ref["work"]):
            return False, 0
        scale = self._preset_scales()[fid]
        bad, strict, _ = oracle.check_cycles(got, ref, scale, oracle.RTOL_EXACT)
        # The reference holds the CSV's 12 significant digits.
        bad |= oracle.beyond(got["lambda1"], ref["lambda1"], 1e-11 * np.maximum(1.0, ref["lambda1"]))
        return not bad.any(), strict

    def _check(self, done: Pass, out: Path, results: dict) -> None:
        failed = 0
        strict = 0
        ok = results["rc"] == 0
        for fid in self.presets:
            try:
                csv_path = out / f"fig{fid}.csv"
                with open(csv_path) as handle:
                    header = handle.readline().strip()
                matrix = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
                got = {c: matrix[:, i] for i, c in enumerate(CSV_COLUMNS)}
                rows_ok, misses = self._check_rows(fid, got)
                strict += misses
                svg = ET.parse(out / f"fig{fid}.svg").getroot()
                line = svg.find("{http://www.w3.org/2000/svg}polyline")
                svg_ok = line is not None and len(line.get("points").split()) == len(matrix)
            except (OSError, ValueError, ET.ParseError) as err:
                done.notes.append(f"fig{fid}: {err}")
                rows_ok = svg_ok = False
                header = ""
            if not (header == CSV_HEADER and rows_ok and svg_ok):
                ok = False
                done.notes.append(f"fig{fid}: output mismatch")
        failed += not ok
        shutil.rmtree(out, ignore_errors=True)

        for unit in self.order:
            if unit in PEAK_IDS:
                records, peaks = results[unit]
                rows_ok, misses = self._check_rows(unit, _records_matrix(records))
                strict += misses
                failed += not rows_ok
                ref_peaks = self.reference["peaks"][unit]
                scale = self._preset_scales()[unit]
                tol = oracle.eta_tolerance(scale, scale, oracle.RTOL_EXACT)
                grid = np.linspace(0.0, self.presets[unit].lambda2, self.presets[unit].grid_points)
                peaks_ok = len(peaks) == len(ref_peaks) and all(
                    loc == rloc and abs(h - rh) <= tol[int(np.searchsorted(grid, rloc))]
                    for (loc, h), (rloc, rh) in zip(peaks, ref_peaks)
                )
                failed += not peaks_ok
                if not (rows_ok and peaks_ok):
                    done.notes.append(f"{unit}: sweep or peak mismatch")
            else:
                pairs = np.array(results[unit], dtype=np.float64).reshape(-1, 2)
                ref_pairs = np.array(self.reference["derivatives"][unit], dtype=np.float64)
                tol = self._preset_scales()["d" + unit]
                pairs_ok = pairs.shape == ref_pairs.shape and not (
                    (pairs[:, 0] != ref_pairs[:, 0]).any()
                    or oracle.beyond(pairs[:, 1], ref_pairs[:, 1], tol).any()
                )
                failed += not pairs_ok
                if not pairs_ok:
                    done.notes.append(f"{unit}: derivative mismatch")
        done.failed_ops = failed
        done.strict_misses = strict


# ---------------------------------------------------------------------------

LARGE_N_GRIDS = ((10_000, 41), (100_000, 9), (1_000_000, 3))
LARGE_N_BATHS = ((0.3, 0.2), (80.0, 40.0))
LARGE_N_LAMBDA2 = 4.0


def large_n_specs():
    """(key, n, t_hot, t_cold, grid, backend) for every large_n sweep."""
    out = []
    for backend in ("exact", "asymptotic"):
        for n, points in LARGE_N_GRIDS:
            for t_hot, t_cold in LARGE_N_BATHS:
                grid = tuple(float(v) for v in np.linspace(0.0, LARGE_N_LAMBDA2, points))
                out.append((f"{backend}/{n}/{t_hot:g}", n, t_hot, t_cold, grid, backend))
    return out


class LargeN:
    """Exact and asymptotic lambda1 sweeps with level arrays up to 8 MB."""

    kernel = "memory"
    query_kernels: dict[str, str] = {}
    # A calibration.Calibration, set by run.py before the timed passes.
    meter = None

    def __init__(self, lmg, workdir: Path, seed: int):
        self.lmg = lmg
        self.rng = np.random.default_rng(seed)
        self.specs = [
            (key, lmg.sweep.SweepSpec(n, th, tc, LARGE_N_LAMBDA2, grid, backend))
            for key, n, th, tc, grid, backend in large_n_specs()
        ]
        self.reference = _load_reference("large_n.json.xz")
        self.rows = sum(len(spec.lambda1_grid) for _, spec in self.specs)
        self._scale_cache: dict = {}

    def warm_up(self) -> None:
        sweep = self.lmg.sweep
        for n, _ in LARGE_N_GRIDS:
            for backend in ("exact", "asymptotic"):
                sweep.sweep_lambda1(sweep.SweepSpec(n, 0.3, 0.2, LARGE_N_LAMBDA2, (1.0,), backend))

    def run_pass(self, index: int) -> Pass:
        sweep = self.lmg.sweep
        # The seed draws the order of the sweeps in each pass.
        order = self.rng.permutation(len(self.specs))
        lat, kinds, results = [], [], {}
        for i in order:
            key, spec = self.specs[i]
            t = perf_counter()
            results[key] = sweep.sweep_lambda1(spec)
            lat.append(self.meter.end_query(perf_counter() - t))
            kinds.append(key)
        done = Pass(sum(lat), lat, kinds, self.rows, self.rows)
        failed = strict = admitted = 0
        for key, spec in self.specs:
            got = _records_matrix(results[key])
            ref = _reference_rows(self.reference[key])
            if key not in self._scale_cache:
                self._scale_cache[key] = [
                    oracle.with_efficiency(_scales(spec.backend, spec.n, spec.t_hot, spec.t_cold,
                                                   spec.lambda2, spec.lambda1_grid, allowance))
                    for allowance in (True, False)
                ]
            rtol = oracle.RTOL_EXACT if spec.backend == "exact" else oracle.RTOL_ASYMPTOTIC
            scale, base = self._scale_cache[key]
            bad, misses, only = oracle.check_cycles(got, ref, scale, rtol, base=base)
            bad |= got["lambda1"] != ref["lambda1"]
            strict += misses
            admitted += only
            if bad.any():
                failed += 1
                done.notes.append(f"{key}: {int(bad.sum())} rows mismatch")
        done.failed_ops = failed
        done.strict_misses = strict
        done.admitted = admitted
        return done


# ---------------------------------------------------------------------------

# Exact cycles, asymptotic cycles, thermal states per pass.
QUERY_MIX = (5_000, 3_000, 2_000)
# Cycles per backend and pass re-evaluated with mpmath.
SPOT_CHECKS = 2


def draw_queries(rng: np.random.Generator) -> dict[str, dict[str, np.ndarray]]:
    """Parameters of one pass of point queries, drawn independently per call."""
    n_exact, n_asym, n_thermal = QUERY_MIX

    def offsets(m):
        return np.where(rng.random(m) < 0.5, 0.0, rng.uniform(-20.0, 20.0, m))

    # The acceptance-7 distribution of random cycles.
    t_hot = 10.0 ** rng.uniform(-1.3, 2.0, n_exact)
    lambda2 = rng.uniform(0.0, 4.0, n_exact)
    exact = {
        "n": rng.integers(1, 81, n_exact),
        "t_hot": t_hot,
        "t_cold": t_hot * rng.uniform(0.05, 0.95, n_exact),
        "lambda1": lambda2 * rng.uniform(0.0, 1.0, n_exact),
        "lambda2": lambda2,
        "offset": offsets(n_exact),
    }
    t_hot = rng.uniform(0.1, 1.0, n_asym)
    lambda2 = rng.uniform(0.5, 4.0, n_asym)
    asym = {
        "n": rng.integers(500, 3001, n_asym),
        "t_hot": t_hot,
        "t_cold": t_hot * rng.uniform(0.2, 0.9, n_asym),
        "lambda1": lambda2 * rng.uniform(0.0, 1.0, n_asym),
        "lambda2": lambda2,
        "offset": offsets(n_asym),
    }
    # Thermal: a sixth at T = 0 (half of those on a ground-level
    # crossing, where the ground manifold is two-fold), a sixth at
    # T = inf, the rest log-uniform.
    n = rng.integers(1, 201, n_thermal)
    lam = rng.uniform(0.0, 4.0, n_thermal)
    branch = rng.integers(0, 6, n_thermal)
    temperature = 10.0 ** rng.uniform(-2.0, 2.0, n_thermal)
    temperature[branch == 0] = 0.0
    temperature[branch == 1] = np.inf
    crossing = (branch == 0) & (rng.random(n_thermal) < 0.5)
    # Levels 2M = t and t + 2 cross at lam = (t + 1)/n; t >= -1 keeps lam >= 0.
    t = -1 + 2 * np.floor(rng.random(n_thermal) * ((n + 1) // 2)).astype(np.int64)
    lam[crossing] = ((t + 1) / n)[crossing]
    thermal = {"n": n, "lambda": lam, "temperature": temperature}
    kinds = np.repeat(np.arange(3), QUERY_MIX)
    return {"exact": exact, "asymptotic": asym, "thermal": thermal, "order": rng.permutation(kinds)}


class PointQueries:
    """Independent single calls: exact and asymptotic cycles, thermal states."""

    kernel = "interpreter"
    # Asymptotic cycles are pure-Python float loops (the erf series).
    query_kernels = {"asymptotic": "scalar"}
    # A calibration.Calibration, set by run.py before the timed passes.
    meter = None

    def __init__(self, lmg, workdir: Path, seed: int):
        self.lmg = lmg
        self.seed = seed
        self.next_inputs = draw_queries(np.random.default_rng([seed, 0]))

    def warm_up(self) -> None:
        warm = draw_queries(np.random.default_rng([self.seed, 1 << 20]))
        calls = self._calls(warm)
        for i in range(0, len(calls), 50):
            calls[i][1]()

    def _calls(self, q) -> list:
        lmg = self.lmg
        cycle, ensemble, core = lmg.cycle, lmg.ensemble, lmg.core
        counters = [0, 0, 0]
        out = []
        for kind in q["order"]:
            i = counters[kind]
            counters[kind] += 1
            if kind == 2:
                p = q["thermal"]
                args = (int(p["n"][i]), float(p["lambda"][i]), float(p["temperature"][i]))
                out.append(("thermal", lambda a=args: ensemble.thermal_state(core.ModelSpec(a[0], a[1]), a[2])))
            else:
                backend = "exact" if kind == 0 else "asymptotic"
                p = q[backend]
                args = (
                    int(p["n"][i]), float(p["t_hot"][i]), float(p["t_cold"][i]),
                    float(p["lambda1"][i]), float(p["lambda2"][i]), backend,
                )
                offset = float(p["offset"][i])
                out.append(
                    (backend, lambda a=args, o=offset: cycle.run_cycle(cycle.CycleSpec(*a), o))
                )
        return out

    def run_pass(self, index: int) -> Pass:
        inputs = self.next_inputs
        calls = self._calls(inputs)
        lat = [0.0] * len(calls)
        results = [None] * len(calls)
        end_query = self.meter.end_query
        for i, (_, call) in enumerate(calls):
            t = perf_counter()
            results[i] = call()
            lat[i] = end_query(perf_counter() - t)
        kinds = [kind for kind, _ in calls]
        cycles = sum(kind != "thermal" for kind in kinds)
        done = Pass(sum(lat), lat, kinds, len(calls), cycles)
        self._check(done, inputs, kinds, results, index)
        # Draw the next pass's inputs outside the timed region.
        self.next_inputs = draw_queries(np.random.default_rng([self.seed, index + 1]))
        return done

    def _check(self, done: Pass, q, kinds, results, index) -> None:
        failed = strict = admitted = 0
        kinds = np.array(kinds)
        for backend, rtol in (("exact", oracle.RTOL_EXACT), ("asymptotic", oracle.RTOL_ASYMPTOTIC)):
            rows = [results[i] for i in np.flatnonzero(kinds == backend)]
            p = q[backend]
            got = _records_matrix_from_cycles(rows)
            ref, base = (
                oracle.with_efficiency(
                    oracle.cycle_reference(backend, p["n"], p["t_hot"], p["t_cold"], p["lambda1"],
                                           p["lambda2"], p["offset"], allowance)
                )
                for allowance in (True, False)
            )
            fields = oracle.CYCLE_FIELDS + tuple(f"{v}_{c}" for v in ("log_z", "u") for c in "abcd")
            bad, misses, only = oracle.check_cycles(got, ref, ref, rtol, fields, base)
            bad |= ~_spot_check(backend, p, got, index)
            failed += int(bad.sum())
            strict += misses
            admitted += only
            if bad.any():
                done.notes.append(f"{backend}: {int(bad.sum())} of {len(rows)} cycles mismatch")

        rows = [results[i] for i in np.flatnonzero(kinds == "thermal")]
        p = q["thermal"]
        bad = np.zeros(len(rows), dtype=bool)
        loose = np.zeros(len(rows), dtype=bool)
        rtol = oracle.RTOL_EXACT
        for size in np.unique(p["n"]):
            idx = np.flatnonzero(p["n"] == size)
            ref = oracle.exact_states(int(size), p["lambda"][idx], p["temperature"][idx], 0.0 * idx)
            ref["internal_energy"] = ref["floor"] + ref["excess"]
            floor = (size + 1) * oracle.EPS
            pop = np.array([rows[i].populations for i in idx])
            bad[idx] |= oracle.beyond(pop, ref["populations"], rtol * ref["populations"] + floor).any(axis=1)
            for name, attr, scale in (
                ("log_z", "log_z", ref["log_z_scale"]),
                ("entropy", "entropy", ref["entropy_scale"]),
                ("excess", "excess_energy", ref["energy_scale"]),
                ("floor", "energy_floor", np.abs(ref["floor"])),
                ("internal_energy", "internal_energy", np.abs(ref["floor"]) + ref["energy_scale"]),
            ):
                got = np.array([getattr(rows[i], attr) for i in idx])
                bad[idx] |= oracle.beyond(got, ref[name], rtol * scale)
                loose[idx] |= oracle.beyond(got, ref[name], rtol * scale / oracle.STRICT_FACTOR)
        failed += int(bad.sum())
        strict += int((loose & ~bad).sum())
        if bad.any():
            done.notes.append(f"thermal: {int(bad.sum())} of {len(rows)} states mismatch")
        done.failed_ops = failed
        done.strict_misses = strict
        done.admitted = admitted


def _records_matrix_from_cycles(results) -> dict[str, np.ndarray]:
    cols = {
        f: np.array([getattr(r, f) for r in results], dtype=np.float64)
        for f in ("efficiency", "eta_carnot", "work", "q_h", "q_ab", "q_bc", "q_cd", "q_da")
    }
    for k, c in enumerate("abcd"):
        cols["s_" + c] = np.array([r.corners[k].entropy for r in results])
        cols["log_z_" + c] = np.array([r.corners[k].log_z for r in results])
        cols["u_" + c] = np.array([r.corners[k].internal_energy for r in results])
    cols["is_engine"] = np.array([r.is_engine for r in results])
    return cols


def _spot_check(backend: str, p: dict, got: dict, index: int) -> np.ndarray:
    """50-digit mpmath check of every corner of a few cycles; True where they pass."""
    ok = np.ones(len(got["work"]), dtype=bool)
    rng = np.random.default_rng([index, len(got["work"])])
    corner = oracle.mp_exact_corner if backend == "exact" else oracle.mp_asymptotic_corner
    rtol = oracle.RTOL_EXACT if backend == "exact" else oracle.RTOL_ASYMPTOTIC
    for i in rng.choice(len(ok), SPOT_CHECKS, replace=False):
        fields = (("lambda2", "t_hot", "a"), ("lambda1", "t_hot", "b"),
                  ("lambda1", "t_cold", "c"), ("lambda2", "t_cold", "d"))
        for lam, temp, c in fields:
            log_z, energy, entropy = corner(int(p["n"][i]), float(p[lam][i]), float(p[temp][i]),
                                            float(p["offset"][i]))
            beta = 1.0 / float(p[temp][i])
            scale_z = abs(log_z) + beta * abs(energy) + abs(entropy)
            scale_u = abs(energy) + abs(log_z) / beta
            # The program's series-erf rounding, as the float64 oracle bounds it.
            err_z = err_u = 0.0
            if backend == "asymptotic":
                state = oracle.asymptotic_states(p["n"][i], p[lam][i], p[temp][i], p["offset"][i])
                err_z, err_u = float(state["log_z_err"]), float(state["energy_err"])
            ok[i] &= abs(got["log_z_" + c][i] - log_z) <= rtol * scale_z + err_z
            ok[i] &= abs(got["u_" + c][i] - energy) <= rtol * scale_u + err_u
            ok[i] &= abs(got["s_" + c][i] - entropy) <= (
                rtol * scale_z + (p["n"][i] + 1) * oracle.EPS + beta * err_u + err_z
            )
    return ok
