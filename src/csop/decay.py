"""Closed-form exponential-decay bound for gapped Schrodinger operators.

Everything here is a function of the two-band spectrum (E-, E+) alone:
the envelope F(q, E) = sqrt((E+ - E - q^2)(E - E- + q^2) / (4 E-)), the
critical rate q_c(E) solving q = F(q, E) (the positive root of a quadratic
in q^2, evaluated over scalar or array energies), the certificate constant

    C_{q,E} = omega_eps^-1 e^{2 q eps} / (min|E+- - E - q^2| (1 - q/F)),

and the band-wide optimum qbar = G / (4 sqrt(E-)) attained at
Ebar = (E+ + E-)/2 - G^2/(16 E-).  The energy origin matters: the 4 E-
denominator presumes energies measured from the bottom of the potential,
so E- = 0 is rejected rather than regularized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGapError, QBeyondCriticalError, ShiftLeavesGapError
from .schrodinger import GapSpectrum

__all__ = [
    "BoundInputs",
    "BoundResult",
    "CertificateReport",
    "unit_ball_volume",
    "omega_eps",
    "decay_envelope",
    "critical_q",
    "bound_constant",
    "qbar_and_ebar",
    "certify_bound",
]


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball in R^dim (2, pi, 4 pi/3, ... )."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def omega_eps(eps: float, dim: int) -> float:
    """Volume of a radius-eps ball in R^dim; equals 2 eps in one dimension."""
    if eps <= 0:
        raise ValueError("averaging radius eps must be positive")
    return unit_ball_volume(dim) * eps**dim


def _validate_gap(gap: GapSpectrum, energy=None):
    if gap.e_minus <= 0.0:
        raise InvalidGapError(
            "e_minus must be positive (energies measured from the potential bottom)"
        )
    if energy is None:
        return
    energy = np.asarray(energy, dtype=float)
    inside = (gap.e_minus < energy) & (energy < gap.e_plus)
    if not np.all(inside):
        raise InvalidGapError(
            f"probe energy {energy[~inside][0]:.6g} outside the gap "
            f"({gap.e_minus:.6g}, {gap.e_plus:.6g})"
        )


@dataclass(frozen=True)
class BoundInputs:
    """Inputs of the decay certificate: gap data, probe energy, rate, ball radius."""

    gap: GapSpectrum
    energy: float
    q: float
    eps: float
    dim: int = 1

    def __post_init__(self):
        _validate_gap(self.gap, self.energy)
        if self.q < 0:
            raise InvalidGapError("decay rate candidate q must be >= 0")
        if self.eps <= 0:
            raise InvalidGapError("averaging radius eps must be > 0")
        if self.dim < 1:
            raise InvalidGapError("dimension must be >= 1")


@dataclass
class BoundResult:
    f_value: float
    c_value: float
    q_critical: float


def decay_envelope(gap: GapSpectrum, energy: float, q: float) -> float:
    """F(q, E) = sqrt((E+ - E - q^2)(E - E- + q^2) / (4 E-))."""
    _validate_gap(gap, energy)
    if gap.e_plus - energy - q * q < 0:
        raise ShiftLeavesGapError(f"E + q^2 = {energy + q*q:.6g} is above e_plus")
    return _envelope(gap, energy, q)


def _envelope(gap: GapSpectrum, energy: float, q: float) -> float:
    """decay_envelope without its checks, for validated inputs with E + q^2 <= E+."""
    a = gap.e_plus - energy - q * q
    b = energy - gap.e_minus + q * q
    return math.sqrt(a * b / (4.0 * gap.e_minus))


def critical_q(gap: GapSpectrum, energy):
    """Positive root of q = F(q, E), in closed form; E may be a scalar or an array.

    Squaring q = F(q, E) gives u^2 + p u - a b = 0 for u = q^2, with
    a = E+ - E, b = E - E- and p = 4 E- - a + b.  Since a b > 0 inside the
    gap it has exactly one positive root, u = (r - p)/2 = 2 a b / (p + r)
    with r = sqrt(p^2 + 4 a b).  Each sign of p takes the form that does not
    cancel: p < 0 occurs near the lower edge of wide gaps (E+ > 3 E- + 2 E).
    A scalar energy gives a float.
    """
    _validate_gap(gap, energy)
    return _critical_q(gap, energy)


def _critical_q(gap: GapSpectrum, energy):
    """critical_q without its checks, for a validated gap and energy."""
    e = np.asarray(energy, dtype=float)
    a, b = gap.e_plus - e, e - gap.e_minus
    p = 4.0 * gap.e_minus - a + b
    r = np.sqrt(p * p + 4.0 * a * b)
    q = np.sqrt(np.where(p >= 0.0, 2.0 * a * b / (p + r), 0.5 * (r - p)))
    return float(q) if q.ndim == 0 else q


def bound_constant(inputs: BoundInputs) -> BoundResult:
    """Exact evaluation of the certificate constant C_{q,E}.

    Raises QBeyondCriticalError for q >= q_c(E) and ShiftLeavesGapError when
    E + q^2 leaves the gap through the upper edge.  The gap and energy are
    validated once, by BoundInputs.
    """
    gap, energy, q = inputs.gap, inputs.energy, inputs.q
    qc = _critical_q(gap, energy)
    if q >= qc:
        raise QBeyondCriticalError(f"q = {q:.6g} >= q_c(E) = {qc:.6g}")
    shift = energy + q * q
    if shift >= gap.e_plus:
        raise ShiftLeavesGapError(f"E + q^2 = {shift:.6g} >= e_plus = {gap.e_plus:.6g}")

    f = _envelope(gap, energy, q)
    margin = min(gap.e_plus - shift, shift - gap.e_minus)
    c = math.exp(2.0 * q * inputs.eps) / (
        omega_eps(inputs.eps, inputs.dim) * margin * (1.0 - q / f)
    )
    return BoundResult(f_value=f, c_value=c, q_critical=qc)


def qbar_and_ebar(gap: GapSpectrum) -> tuple[float, float, bool]:
    """Band-wide decay bound qbar = G/(4 sqrt(E-)) and its optimal energy.

    Ebar = (E+ + E-)/2 - G^2/(16 E-); the returned flag records whether Ebar
    actually lies in the gap, which is the validity caveat of the bound.
    """
    _validate_gap(gap)
    qbar = gap.gap / (4.0 * math.sqrt(gap.e_minus))
    ebar = 0.5 * (gap.e_plus + gap.e_minus) - gap.gap**2 / (16.0 * gap.e_minus)
    in_gap = gap.e_minus < ebar < gap.e_plus
    return qbar, ebar, in_gap


@dataclass
class CertificateReport:
    """Per-sample check of |Gbar| <= C_{q,E} e^{-q s}."""

    passed: bool
    margins: np.ndarray          # log(C e^{-q s}) - log|Gbar| per sample
    worst_margin: float
    c_value: float
    q: float
    sample_pass: np.ndarray


def certify_bound(kernel_samples, inputs: BoundInputs) -> CertificateReport:
    """Check averaged-kernel samples against the exponential envelope.

    `kernel_samples` is an iterable of (separation, |Gbar|) pairs.  An empty
    sample list passes vacuously; zero kernel values pass with infinite
    margin.
    """
    result = bound_constant(inputs)
    samples = np.asarray(list(kernel_samples), dtype=float).reshape(-1, 2)
    seps = samples[:, 0]
    vals = samples[:, 1]
    log_bound = math.log(result.c_value) - inputs.q * seps
    with np.errstate(divide="ignore"):
        margins = log_bound - np.log(vals)
    ok = margins >= 0.0
    return CertificateReport(
        passed=bool(np.all(ok)),
        margins=margins,
        worst_margin=float(np.min(margins, initial=math.inf)),
        c_value=result.c_value,
        q=inputs.q,
        sample_pass=ok,
    )
