"""Exact Kronig-Penney reference model: unit-lattice delta comb of strength v0.

The transfer-matrix half-trace h(E) = cos(sqrt E) + v0 sin(sqrt E)/(2 sqrt E)
characterizes the spectrum (|h| <= 1).  With s = sqrt E it factors as

    h - 1 = 2 sin(s/2) [(v0/2s) cos(s/2) - sin(s/2)],
    h + 1 = 2 cos(s/2) [cos(s/2) + (v0/2s) sin(s/2)],

so the top of band 1 is exactly pi^2 (h(pi) = -1 for every v0 > 0) and the
other two edges are roots of the bracketed factors on the fixed brackets
[0, pi] and [pi, 2 pi].  The exact filled-band decay constant comes from the
complex band structure: at the in-gap stationary point E* of h, the imaginary
Bloch momentum arccosh|h(E*)| is the asymptotic decay rate of the density
matrix.  Lattice constant and hbar^2/2m are fixed at 1.  All three roots come
from _bisect, which halves the bracket down to two adjacent doubles and
returns the better end: the best double there is, with no tolerance to set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decay import GapSpectrum, qbar_and_ebar
from .errors import BranchPointNotFoundError

__all__ = [
    "KPModel",
    "Fig1Row",
    "dispersion",
    "band_edges",
    "exact_decay",
    "fig1_sweep",
    "FIG1_COLUMNS",
]

PI_SQ = math.pi * math.pi


@dataclass(frozen=True)
class KPModel:
    """Delta comb H = -d^2/dx^2 + v0 sum_n delta(x - n) with v0 > 0."""

    v0: float

    def __post_init__(self):
        if self.v0 <= 0:
            raise ValueError("delta strength v0 must be positive")


def dispersion(model: KPModel, energy):
    """Transfer-matrix half-trace h(E); E is in the spectrum iff |h(E)| <= 1.

    Negative E goes through the analytic continuation cos(i k) = cosh(k)
    via the complex square root.  Accepts scalars or arrays.
    """
    e = np.asarray(energy, dtype=complex)
    s = np.sqrt(e)
    small = np.abs(s) < 1e-8
    s_safe = np.where(small, 1.0, s)
    ratio = np.where(small, 1.0 - e / 6.0, np.sin(s_safe) / s_safe)
    h = np.real(np.cos(s) + 0.5 * model.v0 * ratio)
    return float(h) if np.ndim(energy) == 0 else h


def _dh_ds(v0: float, s: float) -> float:
    """d h / d s for s > 0."""
    return -math.sin(s) + 0.5 * v0 * (s * math.cos(s) - math.sin(s)) / (s * s)


def _bisect(f, a: float, b: float) -> float:
    """Root of f on [a, b] by bisection down to two adjacent doubles.

    Returns the end with the smaller |f|; it and one neighbour straddle the
    sign change.  An exact zero at an end is returned as it is, and no sign
    change raises ValueError.  Signs come from math.copysign (no underflow).
    """
    fa, fb = f(a), f(b)
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise ValueError("f(a) and f(b) must have different signs")
    while (m := 0.5 * (a + b)) not in (a, b):
        fm = f(m)
        if fm == 0.0:
            return m
        if math.copysign(1.0, fm) == math.copysign(1.0, fa):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return a if abs(fa) <= abs(fb) else b


def band_edges(model: KPModel) -> GapSpectrum:
    """Edges of band 1 and the bottom of band 2 from the factored h -+ 1.

    The top of band 1 is pi^2.  The bottom of band 1 is the root of
    (v0/2) cos(s/2) - s sin(s/2) on [0, pi], and the bottom of band 2 the
    root of 2 s cos(s/2) + v0 sin(s/2) on [pi, 2 pi]; each changes sign
    once across its bracket for every v0 > 0.
    """
    v0 = model.v0
    s_bottom = _bisect(lambda s: 0.5 * v0 * math.cos(0.5 * s) - s * math.sin(0.5 * s), 0.0, math.pi)
    s_plus = _bisect(lambda s: 2.0 * s * math.cos(0.5 * s) + v0 * math.sin(0.5 * s), math.pi, 2.0 * math.pi)
    return GapSpectrum(e_minus=PI_SQ, e_plus=s_plus**2, e_bottom=s_bottom**2)


def exact_decay(model: KPModel, edges: GapSpectrum | None = None) -> tuple[float, float]:
    """Branch point E* and exact density-matrix decay rate arccosh|h(E*)|.

    E* is the root of dh/dE inside the first gap (the real branch point of
    the complex band structure, where the in-gap imaginary Bloch momentum
    arccosh|h(E)| is maximal), found by _bisect between the gap edges.  There
    h < -1, and d = |h| - 1 = -(h + 1) comes from the factored h + 1 without
    the cancellation in cos s + (v0/2) sin(s)/s, which would cost digits as
    v0 -> 0 (|h| - 1 ~ q^2/2); the rate is arccosh(1 + d) =
    log1p(d + sqrt(d (2 + d))).
    """
    if edges is None:
        edges = band_edges(model)
    v0 = model.v0
    s_lo, s_hi = math.sqrt(edges.e_minus), math.sqrt(edges.e_plus)
    f_lo, f_hi = _dh_ds(v0, s_lo), _dh_ds(v0, s_hi)
    if f_lo * f_hi > 0.0:
        raise BranchPointNotFoundError(
            "dh/dE has no sign change inside the first gap"
        )
    s_star = _bisect(lambda s: _dh_ds(v0, s), s_lo, s_hi)
    c, sn = math.cos(0.5 * s_star), math.sin(0.5 * s_star)
    d = -2.0 * c * (c + 0.5 * v0 * sn / s_star)
    if d <= 0.0:
        raise BranchPointNotFoundError(
            f"|h(E*)| - 1 = {d:.6g} <= 0; stationary point not in a gap"
        )
    return s_star**2, math.log1p(d + math.sqrt(d * (2.0 + d)))


FIG1_COLUMNS = ("v0", "G", "W", "G_over_W", "q_exact", "q_bound", "rel_diff")


@dataclass(frozen=True)
class Fig1Row:
    v0: float
    gap: float
    width: float
    g_over_w: float
    q_exact: float
    q_bound: float
    rel_diff: float


def fig1_sweep(v0_values) -> list[Fig1Row]:
    """Exact decay rate vs the spectral bound across comb strengths.

    Per row: band edges -> gap data -> qbar bound; branch point -> exact
    rate; rel_diff = (q_exact - q_bound) / q_exact.
    """
    rows = []
    for v0 in v0_values:
        model = KPModel(v0=float(v0))
        edges = band_edges(model)
        qbar, _, _ = qbar_and_ebar(edges)
        _, q_exact = exact_decay(model, edges)
        rows.append(
            Fig1Row(
                v0=float(v0),
                gap=edges.gap,
                width=edges.width,
                g_over_w=edges.gap / edges.width,
                q_exact=q_exact,
                q_bound=qbar,
                rel_diff=(q_exact - qbar) / q_exact,
            )
        )
    return rows
