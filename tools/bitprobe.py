"""Compare two source trees of lmgcycle call for call, bit for bit.

Usage::

    python tools/bitprobe.py PARENT_SRC CHANGE_SRC --seed S [--calls K]

PARENT_SRC and CHANGE_SRC are directories holding an ``lmgcycle``
package (a checkout's ``src``).  The script draws one list of random
calls from the seed and runs it against each tree in its own
interpreter, under ``-W error`` so that any numpy or Python warning
becomes an error result, and with bytecode writing off, so neither
tree is written to.  The calls cover:

* ``thermal_state``, with T = 0, T = inf, temperatures so low that
  beta E_min or a level's shifted logit overflows, ground-level
  crossings (t + 1)/n, lambda = 1, and energy offsets;
* ``run_cycle`` on the exact and the asymptotic backend, with cold
  baths, and some hot ones, below the float range;
* ``sweep_lambda1`` and ``derivative_records`` on both backends, with
  grids long enough to span several kernel chunks and cold baths below
  the float range.

Every float is compared by its bit pattern, every population array by
its bytes, and every error by its type and message.  The script prints
the counts per kind of call and exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import math
import os
import pickle
import random
import struct
import subprocess
import sys

KINDS = ("thermal", "cycle", "sweep", "derivative")


def _size(rng: random.Random, short_share: float, largest: int) -> int:
    """A system size: whole ladders (n < 255) or log-uniform up to largest."""
    if rng.random() < short_share:
        return rng.randint(1, 254)
    return int(10.0 ** rng.uniform(0.0, math.log10(largest)))


def _field(rng: random.Random, n: int, top: float) -> float:
    """A field in [0, top]: uniform, a ground-level crossing or lambda = 1."""
    kind = rng.random()
    if kind < 0.2:
        # Levels 2M = t and t + 2 cross at (t + 1)/n, and the crossings
        # are symmetric about 0.
        return min(top, abs(rng.randrange(-n, n, 2) + 1) / n)
    if kind < 0.3:
        return min(top, 1.0)
    return rng.uniform(0.0, top)


def _temperature(rng: random.Random) -> float:
    kind = rng.random()
    if kind < 0.1:
        return 0.0
    if kind < 0.2:
        return math.inf
    if kind < 0.27:
        return 10.0 ** rng.uniform(-310.0, -290.0)
    return 10.0 ** rng.uniform(-3.0, 4.0)


def _baths(rng: random.Random, hot_overflow: bool) -> tuple[float, float]:
    """(t_hot, t_cold); some cold baths, and optionally hot ones, below the float range."""
    kind = rng.random()
    if hot_overflow and kind < 0.03:
        t_hot = 10.0 ** rng.uniform(-310.0, -296.0)
        return t_hot, t_hot * rng.uniform(0.05, 0.95)
    t_hot = 10.0 ** rng.uniform(-2.0, 3.0)
    if kind < 0.1:
        return t_hot, 10.0 ** rng.uniform(-310.0, -296.0)
    return t_hot, t_hot * rng.uniform(0.05, 0.95)


def _offset(rng: random.Random) -> float:
    return 0.0 if rng.random() < 0.5 else rng.uniform(-100.0, 100.0)


def draw_calls(seed: int, count: int) -> list[tuple[str, tuple]]:
    """count calls per kind of thermal_state and run_cycle, a fifth as many sweeps of each kind."""
    rng = random.Random(seed)
    calls = []
    for _ in range(count):
        n = _size(rng, 0.5, 100_000)
        calls.append(("thermal", (n, _field(rng, n, 5.0), _temperature(rng), _offset(rng))))
    for _ in range(count):
        backend = "asymptotic" if rng.random() < 0.2 else "exact"
        n = _size(rng, 0.6, 3_000 if backend == "asymptotic" else 100_000)
        lambda2 = rng.uniform(0.0, 5.0)
        lambda1 = _field(rng, n, lambda2)
        calls.append(("cycle", (n, *_baths(rng, True), lambda1, lambda2, backend, _offset(rng))))
    for kind in ("sweep", "derivative"):
        for _ in range(count // 5):
            backend = "asymptotic" if rng.random() < 0.2 else "exact"
            n = _size(rng, 0.7, 20_000)
            lambda2 = rng.uniform(0.0, 5.0)
            points = rng.randint(1, 40) if rng.random() < 0.7 else rng.randint(41, 600)
            grid = tuple(sorted({_field(rng, n, lambda2) for _ in range(points)}))
            h = 10.0 ** rng.uniform(-4.0, -2.0) if kind == "derivative" else None
            calls.append((kind, (n, *_baths(rng, True), lambda2, grid, backend, h)))
    return calls


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _state(state) -> tuple:
    populations = state.populations
    return (
        _bits(state.temperature), _bits(state.log_z), _bits(state.internal_energy), _bits(state.entropy),
        _bits(state.energy_floor), _bits(state.excess_energy),
        None if populations is None else (populations.dtype.str, populations.shape, populations.tobytes()),
    )


def _evaluate(lmg, kind: str, args: tuple):
    if kind == "thermal":
        n, lam, temperature, offset = args
        return _state(lmg.thermal_state(lmg.ModelSpec(n, lam), temperature, offset))
    if kind == "cycle":
        *spec, offset = args
        result = lmg.run_cycle(lmg.CycleSpec(*spec), offset)
        heats = (result.q_ab, result.q_bc, result.q_cd, result.q_da, result.work, result.q_h)
        floats = (*heats, result.efficiency, result.eta_carnot)
        return (*map(_bits, floats), result.is_engine, *map(_state, result.corners))
    *spec, h = args
    sweep = lmg.SweepSpec(*spec)
    if kind == "sweep":
        rows = (vars(record).values() for record in lmg.sweep_lambda1(sweep))
        return [tuple(v if isinstance(v, bool) else _bits(v) for v in row) for row in rows]
    return [(_bits(x), _bits(slope)) for x, slope in lmg.derivative_records(sweep, h)]


def worker(src: str) -> None:
    """Run the pickled calls on stdin against the package under src; pickle the results to stdout."""
    sys.path.insert(0, src)
    import lmgcycle

    calls = pickle.load(sys.stdin.buffer)
    results = []
    for kind, args in calls:
        try:
            results.append(("ok", _evaluate(lmgcycle, kind, args)))
        except Exception as err:  # every error is a result to compare
            results.append(("error", type(err).__name__, str(err)))
    pickle.dump(results, sys.stdout.buffer)


def _run(src: str, calls: list) -> list:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, "-B", "-W", "error", os.path.abspath(__file__), "--worker", os.path.abspath(src)],
        input=pickle.dumps(calls), capture_output=True, env=env, check=False,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace"))
        raise SystemExit(f"worker for {src} exited with status {done.returncode}")
    # The bytes come from this script's own worker.
    return pickle.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", nargs="?")
    parser.add_argument("change_src", nargs="?")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--calls", type=int, default=1_500, help="thermal_state and run_cycle calls each")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    if not (args.parent_src and args.change_src):
        parser.error("PARENT_SRC and CHANGE_SRC are required")
    calls = draw_calls(args.seed, args.calls)
    parent, change = _run(args.parent_src, calls), _run(args.change_src, calls)
    counts = {kind: [0, 0, 0] for kind in KINDS}  # calls, errors, mismatches
    for (kind, call), old, new in zip(calls, parent, change):
        tally = counts[kind]
        tally[0] += 1
        tally[1] += old[0] == "error"
        if old != new:
            tally[2] += 1
            if sum(t[2] for t in counts.values()) <= 10:
                print(f"mismatch: {kind}{call!r}\n  parent: {old!r:.300}\n  change: {new!r:.300}")
    for kind, (total, errors, mismatches) in counts.items():
        print(f"{kind:10s} {total:6d} calls  {errors:5d} errors  {mismatches:5d} mismatches")
    mismatches = sum(t[2] for t in counts.values())
    print(f"seed {args.seed}: {len(calls) - mismatches} of {len(calls)} results identical")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
