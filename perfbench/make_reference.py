"""Regenerate the committed reference outputs under perfbench/reference/.

Run from the repository root, on the commit whose outputs become the
reference:

    python3 perfbench/make_reference.py

catalogue.json.xz holds every CSV field the `figures` verb writes for the
18 presets, the peak lists of 3a and 4a-4d, and the derivative pairs of
5a and 5d.  large_n.json.xz holds every record of the large_n sweeps.
"""

from __future__ import annotations

import contextlib
import io
import json
import lzma
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import lmgcycle.cli  # noqa: E402
import lmgcycle.figures  # noqa: E402
import lmgcycle.sweep  # noqa: E402

from workloads import (  # noqa: E402
    DERIVATIVE_IDS,
    PEAK_IDS,
    RECORD_FIELDS,
    REFERENCE_DIR,
    large_n_specs,
)


def _write(name: str, payload: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    with lzma.open(REFERENCE_DIR / name, "wt", preset=9) as handle:
        json.dump(payload, handle, separators=(",", ":"))


def _rows(records) -> list[float]:
    return [float(getattr(r, f)) for r in records for f in RECORD_FIELDS]


def catalogue() -> dict:
    out = Path(tempfile.mkdtemp(dir=ROOT))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = lmgcycle.cli.main(["figures", "--out", str(out), "--format", "csv"])
        if rc != 0:
            raise SystemExit(f"figures verb failed with exit code {rc}")
        presets = {
            fid: np.loadtxt(out / f"fig{fid}.csv", delimiter=",", skiprows=1, ndmin=2).ravel().tolist()
            for fid in lmgcycle.figures.figure_ids()
        }
    finally:
        shutil.rmtree(out)
    peaks = {
        fid: lmgcycle.sweep.detect_peaks(lmgcycle.sweep.sweep_lambda1(lmgcycle.figures.figure_sweep(fid)))
        for fid in PEAK_IDS
    }
    derivatives = {
        fid: lmgcycle.sweep.derivative_records(lmgcycle.figures.figure_sweep(fid)) for fid in DERIVATIVE_IDS
    }
    return {"presets": presets, "peaks": peaks, "derivatives": derivatives}


def large_n() -> dict:
    return {
        key: _rows(
            lmgcycle.sweep.sweep_lambda1(lmgcycle.sweep.SweepSpec(n, t_hot, t_cold, 4.0, grid, backend))
        )
        for key, n, t_hot, t_cold, grid, backend in large_n_specs()
    }


if __name__ == "__main__":
    _write("catalogue.json.xz", catalogue())
    _write("large_n.json.xz", large_n())
    for path in sorted(REFERENCE_DIR.iterdir()):
        print(f"wrote {path.relative_to(ROOT)} ({path.stat().st_size} bytes)")
