"""Exact level structure of the isotropic LMG model in the symmetric sector.

The collective Hamiltonian is diagonal in the basis of total-spin
eigenstates with maximal spin J = N/2, where each level is labelled by
the magnetization quantum number M in {-N/2, ..., N/2}.  M is
half-integer for odd N, so the integer 2M is stored everywhere instead
and energies are evaluated from it without ever forming M itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEGENERACY_ATOL",
    "BRUTEFORCE_MAX_N",
    "Level",
    "ModelSpec",
    "allowed_twice_m",
    "bruteforce_spectrum",
    "eigenenergy",
    "energy_levels",
    "ground_set",
    "level_crossings",
    "spectrum",
]

# Absolute tolerance below which two level energies count as degenerate.
DEGENERACY_ATOL = 1e-12

# Dense 2**N diagonalization above this size is not worth supporting.
BRUTEFORCE_MAX_N = 12


@dataclass(frozen=True)
class ModelSpec:
    """System size and field strength defining one Hamiltonian.

    Parameters
    ----------
    n : int
        Number of spins, at least 1.
    lam : float
        Magnetic field strength, non-negative and finite, and small
        enough that the level energies are finite.
    """

    n: int
    lam: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam!r}")
        # _level_energy squares |2M - n lam| <= n (1 + lam); a product,
        # unlike **, gives inf rather than OverflowError.
        x = float(self.n) * (1.0 + float(self.lam))
        if not math.isfinite(x * x):
            raise ValueError(f"lam={self.lam!r} makes the level energies overflow for n={self.n}")


@dataclass(frozen=True)
class Level:
    """One eigenlevel: integer 2M label plus its energy."""

    twice_m: int
    energy: float

    @property
    def m(self) -> float:
        return self.twice_m / 2.0


def allowed_twice_m(n: int) -> np.ndarray:
    """Integer 2M values of the maximal-spin sector, ascending."""
    return np.arange(-n, n + 1, 2, dtype=np.int64)


def _check_twice_m(n: int, twice_m: int) -> None:
    if not isinstance(twice_m, (int, np.integer)) or isinstance(twice_m, bool):
        raise ValueError(f"twice_m must be an integer, got {twice_m!r}")
    if abs(twice_m) > n:
        raise ValueError(f"twice_m={twice_m} outside [-n, n] for n={n}")
    if (twice_m - n) % 2 != 0:
        raise ValueError(f"twice_m={twice_m} has wrong parity for n={n}")


def eigenenergy(spec: ModelSpec, twice_m: int) -> float:
    """Energy of the level labelled by the integer 2M.

    Raises
    ------
    ValueError
        If ``twice_m`` is out of range or has the wrong parity for n.
    """
    _check_twice_m(spec.n, twice_m)
    return float(_level_energy(spec.n, float(twice_m), spec.lam))


def _level_energy(n, twice_m, lam, out=None):
    """The ladder's one energy expression, for floats or broadcast arrays.

    Every layer evaluates levels through this exact sequence of
    operations, so a level has the same float wherever it is formed.
    The result is written to out when it is given, and to a new array
    (a numpy scalar for scalar arguments) otherwise.
    """
    d = np.subtract(twice_m, n * lam, out=out)
    d *= d
    d /= 2.0 * n
    d -= n * (1.0 + lam * lam) / 2.0
    d -= 1.0
    return d


def energy_levels(spec: ModelSpec) -> np.ndarray:
    """All sector energies as a vector, ordered by ascending 2M."""
    return _level_energy(spec.n, allowed_twice_m(spec.n).astype(np.float64), spec.lam)


def spectrum(spec: ModelSpec) -> list[Level]:
    """Levels of the maximal-spin sector, ordered by ascending 2M."""
    energies = energy_levels(spec)
    labels = allowed_twice_m(spec.n)
    return [Level(int(t), float(e)) for t, e in zip(labels, energies)]


def ground_set(spec: ModelSpec) -> set[int]:
    """2M labels of all levels degenerate with the minimum energy.

    Degeneracy means energies agree within ``DEGENERACY_ATOL`` absolute,
    which resolves the exact two-fold crossings at lam = (2k+1)/n without
    merging genuinely distinct neighbours.
    """
    hit = _ground_mask(energy_levels(spec))
    return {int(t) for t in allowed_twice_m(spec.n)[hit]}


def _ground_mask(energies: np.ndarray) -> np.ndarray:
    """Which levels of a ladder are degenerate with its minimum."""
    return energies <= float(energies.min()) + DEGENERACY_ATOL


def level_crossings(n: int) -> list[float]:
    """Fields in (0, 1) where the ground level changes, ascending.

    Adjacent levels 2M = t and t + 2 cross at lam = (t + 1)/n; only the
    crossings that fall strictly inside (0, 1) mark ground-state changes.
    There are n/2 of them for even n and (n - 1)/2 for odd n.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return [(t + 1) / n for t in range(-n, n, 2) if 0 < t + 1 < n]


def _site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for k in range(n):
        out = np.kron(out, op if k == site else np.eye(2))
    return out


def bruteforce_spectrum(spec: ModelSpec) -> list[float]:
    """All 2**n eigenvalues of the full many-body Hamiltonian, ascending.

    Builds the Hamiltonian from explicit spin-1/2 site operators and
    diagonalizes it densely, with no use of the collective-sector
    formula.  The sector energies must appear among these eigenvalues.

    Raises
    ------
    ValueError
        If n exceeds ``BRUTEFORCE_MAX_N``.
    """
    n = spec.n
    if n > BRUTEFORCE_MAX_N:
        raise ValueError(f"bruteforce_spectrum supports n <= {BRUTEFORCE_MAX_N}, got {n}")
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / 2.0
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex) / 2.0
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex) / 2.0

    dim = 2**n
    jx = np.zeros((dim, dim), dtype=complex)
    jy = np.zeros((dim, dim), dtype=complex)
    jz = np.zeros((dim, dim), dtype=complex)
    for site in range(n):
        jx += _site_operator(sx, site, n)
        jy += _site_operator(sy, site, n)
        jz += _site_operator(sz, site, n)

    # Isotropic in-plane exchange plus longitudinal field.
    h = -2.0 * spec.lam * jz - (2.0 / n) * (jx @ jx + jy @ jy)
    eig = np.linalg.eigvalsh(h)
    return [float(v) for v in eig]
