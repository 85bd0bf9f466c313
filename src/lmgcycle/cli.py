"""Command-line interface for spectra, thermal states, cycles, and sweeps.

Verbs
-----
spectrum   level table of one model
thermal    thermodynamics of one model at one temperature
cycle      one four-stroke cycle
sweep      a lambda1 sweep, ad hoc or from a figure preset
figures    regenerate one or all preset datasets
validate   cross-check sector energies against dense diagonalization

All tabular output is CSV with a fixed header; --format svg renders the
efficiency curve instead, and --format both writes the pair.  Files are
written atomically (temp file plus rename).  Exit codes: 0 success, 1
domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import operator
import os
import sys
import tempfile

import numpy as np

from .core import ModelSpec, bruteforce_spectrum, energy_levels, spectrum
from .cycle import BACKENDS
from .ensemble import thermal_state
from .figures import figure_ids, figure_sweep
from .sweep import SweepRecord, SweepSpec, sweep_lambda1

__all__ = ["CSV_HEADER", "build_parser", "main", "records_to_csv", "records_to_svg"]

CSV_HEADER = "lambda1,eta,eta_carnot,work,q_h,q_ab,q_bc,q_cd,q_da,s_a,s_b,s_c,s_d"

# Points per unit of lambda2 when no explicit grid size is given.
DEFAULT_GRID_DENSITY = 200

_VALIDATE_MAX_N = 8
_VALIDATE_FIELDS = 25
_VALIDATE_ATOL = 1e-9


def _fmt(value: float) -> str:
    return f"{value:.12g}"


# A CSV row holds the first 13 SweepRecord fields, in CSV_HEADER order.
_csv_values = operator.attrgetter(*(f.name for f in dataclasses.fields(SweepRecord)[:13]))
_csv_row = ",".join(["{:.12g}"] * 13).format


def records_to_csv(records: list[SweepRecord]) -> str:
    """Sweep records as CSV text with the pinned header, LF line ends."""
    return "\n".join([CSV_HEADER, *(_csv_row(*_csv_values(r)) for r in records)]) + "\n"


def records_to_svg(records: list[SweepRecord], title: str = "") -> str:
    """Standalone SVG of efficiency against lambda1 with the Carnot line."""
    if not records:
        raise ValueError("no records to plot")
    xs = [r.lambda1 for r in records]
    ys = [r.efficiency for r in records]
    carnot = records[0].eta_carnot

    x_lo, x_hi = xs[0], xs[-1]
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo = min(0.0, min(ys))
    y_hi = max(carnot, max(ys))
    pad = 0.05 * (y_hi - y_lo) or 0.05
    y_lo -= pad
    y_hi += pad

    width, height = 720.0, 480.0
    left, right, top, bottom = 72.0, 24.0, 40.0, 56.0

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)

    def py(y: float) -> float:
        return height - bottom - (y - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:g}" height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:g}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    axis = 'stroke="black" stroke-width="1"'
    parts.append(f'<line x1="{left:g}" y1="{py(y_lo):.2f}" x2="{width - right:g}" y2="{py(y_lo):.2f}" {axis}/>')
    parts.append(f'<line x1="{left:g}" y1="{py(y_lo):.2f}" x2="{left:g}" y2="{py(y_hi):.2f}" {axis}/>')
    for i in range(5):
        x = x_lo + (x_hi - x_lo) * i / 4
        parts.append(
            f'<text x="{px(x):.2f}" y="{height - bottom + 20:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{x:g}</text>'
        )
        y = y_lo + (y_hi - y_lo) * i / 4
        parts.append(
            f'<text x="{left - 8:.2f}" y="{py(y) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{y:.3g}</text>'
        )
    parts.append(
        f'<text x="{(left + width - right) / 2:.2f}" y="{height - 12:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">lambda1</text>'
    )
    carnot_y = py(carnot)
    parts.append(
        f'<line x1="{left:g}" y1="{carnot_y:.2f}" x2="{width - right:g}" y2="{carnot_y:.2f}" '
        f'stroke="#d62728" stroke-width="1" stroke-dasharray="6 4"/>'
    )
    parts.append(
        f'<text x="{width - right:.2f}" y="{carnot_y - 6:.2f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12" fill="#d62728">Carnot {carnot:.4g}</text>'
    )
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lmgcycle-", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)
        print(f"wrote {out}")


def _dataset_outputs(records: list[SweepRecord], title: str, fmt: str, out: str | None,
                     default_stem: str | None) -> None:
    """Route one dataset to stdout or files, honouring --format."""
    if fmt == "csv":
        path = out if out is not None else (default_stem + ".csv" if default_stem else None)
        _emit(records_to_csv(records), path)
    elif fmt == "svg":
        path = out if out is not None else (default_stem + ".svg" if default_stem else None)
        _emit(records_to_svg(records, title), path)
    else:
        stem = os.path.splitext(out)[0] if out is not None else default_stem
        if stem is None:
            raise ValueError("--format both requires --out")
        _emit(records_to_csv(records), stem + ".csv")
        _emit(records_to_svg(records, title), stem + ".svg")


def _cmd_spectrum(args: argparse.Namespace) -> int:
    model = ModelSpec(args.n, args.lambda1)
    lines = ["twice_m,m,energy"]
    lines.extend(f"{lv.twice_m},{_fmt(lv.m)},{_fmt(lv.energy)}" for lv in spectrum(model))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_thermal(args: argparse.Namespace) -> int:
    state = thermal_state(ModelSpec(args.n, args.lambda1), args.t)
    lines = [
        "n,lambda,t,log_z,internal_energy,entropy",
        f"{args.n},{_fmt(args.lambda1)},{_fmt(args.t)},{_fmt(state.log_z)},"
        f"{_fmt(state.internal_energy)},{_fmt(state.entropy)}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_cycle(args: argparse.Namespace) -> int:
    spec = SweepSpec(
        args.n, args.t_hot, args.t_cold, args.lambda2, (args.lambda1,), args.backend
    )
    _emit(records_to_csv(sweep_lambda1(spec)), args.out)
    return 0


def _sweep_title(spec: SweepSpec) -> str:
    return (
        f"n={spec.n} t_hot={spec.t_hot:g} t_cold={spec.t_cold:g} "
        f"lambda2={spec.lambda2:g} backend={spec.backend}"
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    parser = args.subparser
    manual = [args.n, args.t_hot, args.t_cold, args.lambda2]
    if args.figure is not None:
        if any(v is not None for v in manual) or args.grid is not None or args.backend is not None:
            parser.error(
                "--figure cannot be combined with --n/--t-hot/--t-cold/--lambda2/--grid/--backend"
            )
        spec = figure_sweep(args.figure)
        title = f"figure {args.figure}: " + _sweep_title(spec)
    else:
        if any(v is None for v in manual):
            parser.error("either --figure or all of --n/--t-hot/--t-cold/--lambda2 are required")
        count = args.grid
        if count is None:
            count = int(round(DEFAULT_GRID_DENSITY * args.lambda2)) + 1
        if count < 1:
            raise ValueError(f"--grid must be at least 1, got {count}")
        grid = tuple(float(v) for v in np.linspace(0.0, args.lambda2, count))
        backend = args.backend or "exact"
        spec = SweepSpec(args.n, args.t_hot, args.t_cold, args.lambda2, grid, backend)
        title = _sweep_title(spec)
    records = sweep_lambda1(spec)
    _dataset_outputs(records, title, args.format, args.out, default_stem=None)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    if args.figure is not None:
        jobs = [(args.figure, args.out, f"fig{args.figure}")]
    else:
        directory = args.out or "."
        os.makedirs(directory, exist_ok=True)
        jobs = [(fid, None, os.path.join(directory, f"fig{fid}")) for fid in figure_ids()]
    for figure_id, out, stem in jobs:
        spec = figure_sweep(figure_id)
        title = f"figure {figure_id}: " + _sweep_title(spec)
        _dataset_outputs(sweep_lambda1(spec), title, args.format, out, default_stem=stem)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    worst = 0.0
    for n in range(1, _VALIDATE_MAX_N + 1):
        for lam in np.linspace(0.0, 4.0, _VALIDATE_FIELDS):
            model = ModelSpec(n, float(lam))
            sector = np.sort(energy_levels(model))
            dense = np.array(bruteforce_spectrum(model))
            idx = np.searchsorted(dense, sector).clip(1, dense.size - 1)
            nearest = np.minimum(
                np.abs(dense[idx] - sector), np.abs(dense[idx - 1] - sector)
            )
            deviation = float(nearest.max())
            worst = max(worst, deviation)
            if deviation > _VALIDATE_ATOL:
                print(
                    f"validate: n={n} lambda={lam:g}: sector level missing from dense "
                    f"spectrum (deviation {deviation:.3e})",
                    file=sys.stderr,
                )
                return 1
        print(f"n={n}: sector levels found in dense spectrum (25 fields)")
    print(f"validation passed, worst deviation {worst:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmgcycle",
        description="Collective-spin model thermodynamics and heat-engine cycles.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("spectrum", help="level table of one model")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lambda1", type=float, required=True, help="field strength")
    sp.add_argument("--out")
    sp.set_defaults(handler=_cmd_spectrum)

    sp = sub.add_parser("thermal", help="thermal state of one model")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lambda1", type=float, required=True, help="field strength")
    sp.add_argument("--t", type=float, required=True, help="temperature (0 and inf allowed)")
    sp.add_argument("--out")
    sp.set_defaults(handler=_cmd_thermal)

    sp = sub.add_parser("cycle", help="one four-stroke cycle")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t-hot", type=float, required=True)
    sp.add_argument("--t-cold", type=float, required=True)
    sp.add_argument("--lambda1", type=float, required=True)
    sp.add_argument("--lambda2", type=float, required=True)
    sp.add_argument("--backend", choices=BACKENDS, default="exact")
    sp.add_argument("--out")
    sp.set_defaults(handler=_cmd_cycle)

    sp = sub.add_parser("sweep", help="sweep lambda1 from 0 to lambda2")
    sp.add_argument("--n", type=int)
    sp.add_argument("--t-hot", type=float)
    sp.add_argument("--t-cold", type=float)
    sp.add_argument("--lambda2", type=float)
    sp.add_argument("--grid", type=int, help="number of grid points (default 200 per unit)")
    sp.add_argument("--backend", choices=BACKENDS, default=None)
    sp.add_argument("--figure", help="use a preset instead of explicit parameters")
    sp.add_argument("--out")
    sp.add_argument("--format", choices=("csv", "svg", "both"), default="csv")
    sp.set_defaults(handler=_cmd_sweep, subparser=sp)

    sp = sub.add_parser("figures", help="regenerate preset datasets")
    sp.add_argument("--figure", help="one preset id (default: all)")
    sp.add_argument("--out", help="output path (single figure) or directory (all)")
    sp.add_argument("--format", choices=("csv", "svg", "both"), default="csv")
    sp.set_defaults(handler=_cmd_figures)

    sp = sub.add_parser("validate", help="cross-check against dense diagonalization")
    sp.set_defaults(handler=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
