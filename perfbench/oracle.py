"""Independent evaluator and tolerance rules for the benchmark's output checks.

Nothing here imports lmgcycle.  Exact-backend states are recomputed from
the level ladder with a float64 log-sum-exp, grouped by system size so a
whole batch of corners is one array operation.  Asymptotic states use
scipy's log-normal-CDF for the error-function bracket and the analytic
beta-derivative of log Z instead of a finite difference.  A small sample
is re-evaluated at 50 digits with mpmath.

Tolerance model.  Every compared value x gets |x - ref| <= rtol * scale,
where scale is the sum of the magnitudes of the terms that the value is
formed from (so cancellation widens the bound, and nothing else does).
The exact backend is held to RTOL_EXACT, and an entropy additionally
gets one ulp per level as an absolute floor: populations are stored in
float64, so a ground population within eps of 1 is 1 and its
-p ln p term cannot be resolved by any population-based sum.  An
exact excess energy gets POPULATION_FLUSH times the summed level gaps as
its absolute floor: the program sets populations below that to zero, so
an excess in the underflow range may read 0.  The
asymptotic backend is held to RTOL_ASYMPTOTIC: the program sums the erf
Maclaurin series up to x = 3, where cancellation costs a factor
e^9 ~ 1e4 over eps (about 2e-12 relative in log Z), and a central
difference with relative step 1e-6 divides that by 2e-6.  Where the erf
bracket is itself a small difference, as 1 - erf(x) is for x just below
3, that absolute series error is a much larger relative error of the
bracket (up to about 3e-9 at x = 3).  series_rounding bounds it, and with
allowance=True the asymptotic scales carry that bound through the finite
difference.  Outputs that only this allowance admits are counted apart:
they are the program's known precision loss at the series cutover.

check_cycles also counts outputs that miss a ten-times-tighter bound
(STRICT_FACTOR) while meeting the stated one, so a precision loss that
the stated bound admits is still reported.
"""

from __future__ import annotations

import math

import numpy as np

RTOL_EXACT = 1e-9
RTOL_ASYMPTOTIC = 1e-6
# The program's erf is a Maclaurin series below this argument, and its
# asymptotic energy a central difference with this relative beta step.
PROGRAM_SERIES_CUT = 3.0
PROGRAM_BETA_STEP = 1e-6
# Bound on the series' absolute error, in units of eps * (|erf x| + erfi x):
# erfi x is the sum of the magnitudes of its terms.  Measured against
# mpmath on [0, 3), the ratio stays below 1.4.
SERIES_ERROR_FACTOR = 2.0
EPS = float(np.finfo(np.float64).eps)
# Level energies closer than this count as one degenerate ground level.
DEGENERACY_ATOL = 1e-12
# The program flushes populations below this to zero (ensemble.POPULATION_FLUSH).
POPULATION_FLUSH = 1e-300


def levels(n: int, lam: np.ndarray) -> np.ndarray:
    """E(M) = (2/n)(M - n lam / 2)^2 - (n/2)(1 + lam^2) - 1, rows per lam."""
    m = np.arange(n + 1, dtype=np.float64) - n / 2.0
    lam = np.asarray(lam, dtype=np.float64)[:, None]
    return 2.0 / n * (m - n * lam / 2.0) ** 2 - n / 2.0 * (1.0 + lam**2) - 1.0


def exact_states(n: int, lam, temperature, offset) -> dict[str, np.ndarray]:
    """Canonical states of the maximal-spin ladder for a batch of corners.

    Temperatures may be finite and positive, inf, or 0 (symbolic ground
    state).  Returns log_z, floor, excess, entropy and populations,
    each with one row per corner.
    """
    temperature = np.asarray(temperature, dtype=np.float64)
    offset = np.asarray(offset, dtype=np.float64)
    energy = levels(n, lam)
    e0 = energy.min(axis=1)
    gap = energy - e0[:, None]
    zero = temperature == 0.0
    beta = np.where(np.isinf(temperature) | zero, 0.0, 1.0 / np.where(zero, 1.0, temperature))

    weight = np.exp(-beta[:, None] * gap)
    rows = np.arange(len(e0))
    # The ground weight is exactly 1; summing the others apart and taking
    # log1p keeps tiny entropies at full relative precision.
    others = weight.copy()
    others[rows, np.argmin(gap, axis=1)] = 0.0
    rest = others.sum(axis=1)
    log_zs = np.log1p(rest)
    pop = weight / (1.0 + rest)[:, None]
    excess = (pop * gap).sum(axis=1)
    entropy = beta * excess + log_zs
    log_z = -beta * e0 + log_zs - beta * offset
    log_z_scale = beta * np.abs(e0) + log_zs + beta * np.abs(offset)

    if zero.any():
        members = gap[zero] <= DEGENERACY_ATOL
        count = members.sum(axis=1)
        pop[zero] = members / count[:, None]
        excess[zero] = 0.0
        entropy[zero] = np.log(count)
        log_z[zero] = math.inf
    return {
        "log_z": log_z,
        "floor": e0 + offset,
        "excess": excess,
        "energy_scale": excess + POPULATION_FLUSH * gap.sum(axis=1) / RTOL_EXACT,
        "entropy": entropy,
        "entropy_scale": entropy + (n + 1) * EPS / RTOL_EXACT,
        "log_z_scale": log_z_scale,
        "populations": pop,
    }


def _log_erfc(x: np.ndarray) -> np.ndarray:
    from scipy.special import log_ndtr

    # erfc(x) = 2 * Phi(-x sqrt 2)
    return math.log(2.0) + log_ndtr(-np.sqrt(2.0) * x)


def series_rounding(u: np.ndarray, low: np.ndarray, log_bracket: np.ndarray):
    """Bound on the relative error of the program's erf bracket.

    The bracket erf u + erf l (formed as 1 - erf(-u) when l is large) is
    off by at most the absolute error of each series-summed erf, so its
    relative error is that sum over the bracket.
    """
    from scipy.special import erf, erfi

    error = np.zeros_like(log_bracket)
    for x in (np.abs(u), np.abs(low)):
        series = x < PROGRAM_SERIES_CUT
        xs = np.where(series, x, 0.0)
        error += np.where(series, SERIES_ERROR_FACTOR * EPS * (erf(xs) + erfi(xs)), 0.0)
    # Without a series term the bracket may underflow; its error is then 0.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(error > 0.0, error * np.exp(-log_bracket), 0.0)


def asymptotic_states(n, lam, temperature, offset, allowance=True) -> dict[str, np.ndarray]:
    """Saddle-point states with the analytic beta-derivative of log Z.

    With allowance, the scales include the program's series-erf
    rounding (series_rounding), divided by RTOL_ASYMPTOTIC so that the
    tolerance rtol * scale carries it at face value.

    log Z = beta n (1 + lam^2)/2 - log(2 n beta)/2 + log(erf u + erf l),
    with u = (1 - lam)/2 * sqrt(2 n beta) and l = (1 + lam)/2 * sqrt(2 n beta).
    Both u and l scale as sqrt(beta), so d/dbeta log(erf u + erf l) is
    (u e^{-u^2} + l e^{-l^2}) / (beta sqrt(pi) (erf u + erf l)).
    """
    n = np.asarray(n, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    beta = 1.0 / np.asarray(temperature, dtype=np.float64)
    offset = np.asarray(offset, dtype=np.float64)
    root = np.sqrt(2.0 * n * beta)
    u = (1.0 - lam) / 2.0 * root
    low = (1.0 + lam) / 2.0 * root
    # erf u + erf l = erfc(-u) - erfc(l), and erfc(-u) >= erfc(l) since l >= -u.
    big = _log_erfc(-u)
    small = _log_erfc(low)
    log_bracket = big + np.log1p(-np.exp(small - big))
    lead = beta * n * (1.0 + lam**2) / 2.0 - 0.5 * np.log(2.0 * n * beta)
    log_z = lead + log_bracket
    slope = (u * np.exp(-u * u - log_bracket) + low * np.exp(-low * low - log_bracket)) / (
        beta * math.sqrt(math.pi)
    )
    d_lead = n * (1.0 + lam**2) / 2.0 - 0.5 / beta
    energy = -(d_lead + slope)
    entropy = beta * energy + log_z
    # Absolute errors that the series erf leaves in log Z, and in the
    # energy after the central difference divides two of them by 2 step.
    log_z_err = series_rounding(u, low, log_bracket)
    energy_err = log_z_err / (beta * PROGRAM_BETA_STEP)
    slack = 1.0 / RTOL_ASYMPTOTIC if allowance else 0.0
    return {
        "log_z": log_z - beta * offset,
        "log_z_scale": np.abs(lead) + np.abs(log_bracket) + beta * np.abs(offset)
        + slack * log_z_err,
        "floor": offset,
        "excess": energy,
        "entropy": entropy,
        "entropy_scale": np.abs(beta * energy) + np.abs(log_z)
        + slack * (beta * energy_err + log_z_err),
        # Scale of log Z / beta, the size of the finite-difference rounding.
        "energy_scale": np.abs(log_z) / beta + np.abs(energy) + slack * energy_err,
        "log_z_err": log_z_err,
        "energy_err": energy_err,
    }


def cycle_reference(backend: str, n, t_hot, t_cold, lambda1, lambda2, offset, allowance=True):
    """Reference corners, heats and their scales for a batch of cycles.

    Corner order is A = (lambda2, hot), B = (lambda1, hot),
    C = (lambda1, cold), D = (lambda2, cold).  Returns a dict of arrays
    keyed by the cycle field names plus a matching '<field>_scale'.
    allowance is passed to asymptotic_states.
    """
    n = np.asarray(n)
    t_hot = np.asarray(t_hot, dtype=np.float64)
    t_cold = np.asarray(t_cold, dtype=np.float64)
    corners_in = (
        (lambda2, t_hot),
        (lambda1, t_hot),
        (lambda1, t_cold),
        (lambda2, t_cold),
    )
    corners = []
    for lam, temp in corners_in:
        if backend == "exact":
            state = _exact_by_size(n, np.asarray(lam, dtype=np.float64), temp, offset)
        else:
            state = asymptotic_states(n, lam, temp, offset, allowance)
        corners.append(state)
    a, b, c, d = corners
    out: dict[str, np.ndarray] = {}
    out["q_ab"] = t_hot * (b["entropy"] - a["entropy"])
    out["q_ab_scale"] = t_hot * (b["entropy_scale"] + a["entropy_scale"])
    out["q_cd"] = t_cold * (d["entropy"] - c["entropy"])
    out["q_cd_scale"] = t_cold * (d["entropy_scale"] + c["entropy_scale"])
    out["q_bc"] = c["excess"] - b["excess"]
    out["q_bc_scale"] = c["energy_scale"] + b["energy_scale"]
    out["q_da"] = a["excess"] - d["excess"]
    out["q_da_scale"] = a["energy_scale"] + d["energy_scale"]
    heats = ("q_ab", "q_bc", "q_cd", "q_da")
    out["work"] = sum(out[h] for h in heats)
    out["work_scale"] = sum(out[h + "_scale"] for h in heats)
    out["q_h"] = out["q_ab"] + out["q_da"]
    out["q_h_scale"] = out["q_ab_scale"] + out["q_da_scale"]
    out["eta_carnot"] = 1.0 - t_cold / t_hot
    out["eta_carnot_scale"] = np.ones_like(t_hot)
    for key, corner in zip("abcd", corners):
        out["s_" + key] = corner["entropy"]
        out["s_" + key + "_scale"] = corner["entropy_scale"]
        out["log_z_" + key] = corner["log_z"]
        out["log_z_" + key + "_scale"] = corner["log_z_scale"]
        out["u_" + key] = corner["floor"] + corner["excess"]
        out["u_" + key + "_scale"] = np.abs(corner["floor"]) + corner["energy_scale"]
    return out


def _exact_by_size(n: np.ndarray, lam: np.ndarray, temperature, offset) -> dict[str, np.ndarray]:
    """exact_states over a batch with mixed n, in chunks of about 1e6 levels."""
    temperature = np.broadcast_to(np.asarray(temperature, dtype=np.float64), n.shape)
    offset = np.broadcast_to(np.asarray(offset, dtype=np.float64), n.shape)
    keys = ("log_z", "log_z_scale", "floor", "excess", "energy_scale", "entropy", "entropy_scale")
    out = {k: np.empty(n.shape) for k in keys}
    for size in np.unique(n):
        rows = np.flatnonzero(n == size)
        step = max(1, 1_000_000 // (int(size) + 1))
        for part in range(0, len(rows), step):
            chunk = rows[part : part + step]
            state = exact_states(int(size), lam[chunk], temperature[chunk], offset[chunk])
            for k in keys:
                out[k][chunk] = state[k]
    return out


CYCLE_FIELDS = ("eta_carnot", "work", "q_h", "q_ab", "q_bc", "q_cd", "q_da", "s_a", "s_b", "s_c", "s_d")
STRICT_FACTOR = 10.0


def beyond(got: np.ndarray, ref: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """True where got misses ref by more than tol; equal infinities match."""
    same = got == ref
    with np.errstate(invalid="ignore"):
        return ~(same | (np.abs(got - ref) <= tol))


def check_cycles(got: dict, ref: dict, scale: dict, rtol: float, fields=CYCLE_FIELDS, base=None):
    """Per-row miss flags for cycle outputs, and counts of near misses.

    got and ref map field names to arrays (ref values may come from the
    committed reference or from this module); scale holds the matching
    '<field>_scale' arrays.  base, if given, holds the scales without the
    series-erf allowance (cycle_reference with allowance=False).  The
    efficiency is checked two ways: it must be work / q_h (or 0 when
    q_h <= 0) of the program's own heats, and it must match the
    reference within the error that the work and q_h tolerances
    propagate through the division (see eta_tolerance).

    Returns the miss flags, the number of passing rows that miss a
    STRICT_FACTOR tighter bound without the allowance, and the number of
    passing rows that only the allowance admits.
    """
    base = scale if base is None else base
    bad = np.zeros(len(got["work"]), dtype=bool)
    strict = np.zeros_like(bad)
    admitted = np.zeros_like(bad)
    for f in fields:
        bad |= beyond(got[f], ref[f], rtol * scale[f + "_scale"])
        tol = rtol * base[f + "_scale"]
        admitted |= beyond(got[f], ref[f], tol)
        strict |= beyond(got[f], ref[f], tol / STRICT_FACTOR)

    with np.errstate(divide="ignore", invalid="ignore"):
        own = np.where(got["q_h"] > 0.0, got["work"] / got["q_h"], 0.0)
    bad |= beyond(got["efficiency"], own, 1e-10 * np.abs(own))
    bad |= beyond(got["efficiency"], ref["efficiency"], eta_tolerance(ref, scale, rtol))
    tol = eta_tolerance(ref, base, rtol)
    admitted |= beyond(got["efficiency"], ref["efficiency"], tol)
    strict |= beyond(got["efficiency"], ref["efficiency"], tol / STRICT_FACTOR)
    if "is_engine" in got:
        bad |= got["is_engine"] != ((got["work"] > 0.0) & (got["q_h"] > 0.0))
    return bad, int((strict & ~bad).sum()), int((admitted & ~bad).sum())


def eta_tolerance(ref: dict, scale: dict, rtol: float) -> np.ndarray:
    """Efficiency tolerance per row, propagated from work and q_h.

    Infinite where q_h is within its tolerance of zero: there the sign
    of q_h, and so whether the efficiency is work / q_h or 0, is not
    resolved at this precision.
    """
    qh_tol = rtol * scale["q_h_scale"]
    with np.errstate(divide="ignore", invalid="ignore"):
        tol = (rtol * scale["work_scale"] + np.abs(ref["efficiency"]) * qh_tol) / np.abs(ref["q_h"])
    return np.where(np.abs(ref["q_h"]) > qh_tol, tol, np.inf)


def with_efficiency(ref: dict) -> dict:
    """Add the efficiency column that run_cycle defines from work and q_h."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ref["efficiency"] = np.where(ref["q_h"] > 0.0, ref["work"] / ref["q_h"], 0.0)
    return ref


# ---------------------------------------------------------------------------
# 50-digit spot checks


def mp_exact_corner(n: int, lam: float, temperature: float, offset: float):
    """(log_z, internal_energy, entropy) of one exact corner at 50 digits."""
    import mpmath as mp

    with mp.workdps(50):
        lam_ = mp.mpf(lam)
        beta = 1 / mp.mpf(temperature)
        energy = [
            2 * (mp.mpf(k) - mp.mpf(n) / 2 - n * lam_ / 2) ** 2 / n - mp.mpf(n) / 2 * (1 + lam_**2) - 1
            for k in range(n + 1)
        ]
        weights = [mp.exp(-beta * e) for e in energy]
        z = mp.fsum(weights)
        mean = mp.fsum(w * e for w, e in zip(weights, energy)) / z
        log_z = mp.log(z) - beta * offset
        entropy = beta * mean + mp.log(z)
        return float(log_z), float(mean + offset), float(entropy)


def mp_asymptotic_corner(n: int, lam: float, temperature: float, offset: float):
    """(log_z, internal_energy, entropy) of one asymptotic corner at 50 digits."""
    import mpmath as mp

    with mp.workdps(50):
        lam_ = mp.mpf(lam)

        def log_z(beta):
            root = mp.sqrt(2 * n * beta)
            # erf u + erf l as a difference of complements, which mpmath
            # keeps at full relative precision however small it gets.
            bracket = mp.erfc(-(1 - lam_) / 2 * root) - mp.erfc((1 + lam_) / 2 * root)
            return beta * n * (1 + lam_**2) / 2 - mp.log(2 * n * beta) / 2 + mp.log(bracket)

        beta = 1 / mp.mpf(temperature)
        value = log_z(beta)
        energy = -mp.diff(log_z, beta)
        return float(value - beta * offset), float(energy + offset), float(beta * energy + value)
