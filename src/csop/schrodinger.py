"""1D Dirichlet Schrodinger operators on a uniform grid.

The discretization uses the 3-point Laplacian, delta combs as v0/h on their
nearest grid site, and the antisymmetric central difference D for the boost
H_q = H + 2 q D - q^2 I.  This choice keeps H real symmetric and makes the
transpose identity H_q^T = H_{-q} hold bitwise, which is what the block
embedding needs to turn decay estimates into resolvent-norm estimates.
Operators store their three diagonals (Tridiagonal), not a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .antilinear import block_embed, resolvent_norm
from .errors import (
    BallOutsideDomainError,
    NegativePotentialError,
    NoGapFoundError,
    ShiftInSpectrumError,
)

__all__ = [
    "Tridiagonal",
    "Grid1D",
    "PotentialSpec",
    "DiscreteHamiltonian",
    "GapSpectrum",
    "BoostedHamiltonian",
    "build_hamiltonian",
    "find_gap",
    "boost",
    "gamma_norm",
    "bq_norm",
    "avg_resolvent_kernel",
    "resolvent_kernel_scan",
    "projector_decay",
    "ProjectorDecay",
]

THETA_GAP_DEFAULT = 1e-6


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on (0, length) with n interior points and Dirichlet walls."""

    length: float
    n: int

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("grid length must be positive")
        if self.n < 3:
            raise ValueError("need at least 3 interior points")

    @property
    def h(self) -> float:
        return self.length / (self.n + 1)

    @property
    def points(self) -> np.ndarray:
        return self.h * np.arange(1, self.n + 1)


@dataclass(frozen=True)
class Tridiagonal:
    """n x n tridiagonal matrix stored as its sub-, main and super-diagonal."""

    sub: np.ndarray     # entries (i + 1, i)
    main: np.ndarray
    sup: np.ndarray     # entries (i, i + 1)

    @classmethod
    def laplacian(cls, grid: Grid1D, scale: complex = 1.0, potential=0.0) -> "Tridiagonal":
        """scale * (-d^2/dx^2) + potential with the 3-point Dirichlet Laplacian."""
        c = scale / (grid.h * grid.h)
        off = np.full(grid.n - 1, -c)
        return cls(sub=off, main=np.full(grid.n, 2.0 * c) + potential, sup=off)

    @classmethod
    def central_difference(cls, grid: Grid1D) -> "Tridiagonal":
        """The antisymmetric central difference D = d/dx."""
        off = np.full(grid.n - 1, 1.0 / (2.0 * grid.h))
        return cls(sub=-off, main=np.zeros(grid.n), sup=off)

    def dense(self, shift: complex = 0.0) -> np.ndarray:
        """The n x n array of self - shift * I."""
        out = np.diag(self.main - shift)
        idx = np.arange(self.sub.size)
        out[idx + 1, idx] = self.sub
        out[idx, idx + 1] = self.sup
        return out

    def banded(self, shift: complex = 0.0) -> np.ndarray:
        """LAPACK (1, 1) band storage of self - shift * I, as solve_banded takes it."""
        ab = np.zeros((3, self.main.size), dtype=np.result_type(self.main, shift))
        ab[0, 1:] = self.sup
        ab[1] = self.main - shift
        ab[2, :-1] = self.sub
        return ab

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """self @ x for a vector or a block of column vectors."""
        col = (slice(None),) + (None,) * (np.ndim(x) - 1)
        y = self.main[col] * x
        y[:-1] += self.sup[col] * x[1:]
        y[1:] += self.sub[col] * x[:-1]
        return y


@dataclass(frozen=True)
class PotentialSpec:
    """Scalar potential: either sampled values at the grid points or a delta comb."""

    kind: str
    values: np.ndarray | None = None
    positions: np.ndarray | None = None
    strength: float = 0.0

    @classmethod
    def sampled(cls, values) -> "PotentialSpec":
        vals = np.asarray(values, dtype=float)
        if np.any(vals < 0):
            raise NegativePotentialError("sampled potential values must be >= 0")
        return cls(kind="sampled", values=vals)

    @classmethod
    def delta_comb(cls, positions, strength: float) -> "PotentialSpec":
        if strength <= 0:
            raise ValueError("delta comb strength v0 must be positive")
        pos = np.asarray(positions, dtype=float)
        return cls(kind="delta_comb", positions=pos, strength=float(strength))


@dataclass
class DiscreteHamiltonian:
    """Real symmetric tridiagonal H: 3-point Laplacian plus diagonal potential."""

    bands: Tridiagonal
    grid: Grid1D
    _eigh: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def matrix(self) -> np.ndarray:
        return self.bands.dense()

    def eigensystem(self):
        """Full (eigenvalues, eigenvectors), cached after the first call."""
        if self._eigh is None:
            self._eigh = scipy.linalg.eigh_tridiagonal(self.bands.main, self.bands.sup)
        return self._eigh

    def eigenvalues(self) -> np.ndarray:
        return self.eigensystem()[0]

    @property
    def norm(self) -> float:
        evals = self.eigenvalues()
        return float(max(abs(evals[0]), abs(evals[-1])))


@dataclass(frozen=True)
class GapSpectrum:
    """Two-band spectrum data: lower band [e_bottom, e_minus], upper band from e_plus."""

    e_minus: float
    e_plus: float
    e_bottom: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.e_bottom <= self.e_minus < self.e_plus):
            raise ValueError(
                f"need 0 <= e_bottom <= e_minus < e_plus, got "
                f"({self.e_bottom}, {self.e_minus}, {self.e_plus})"
            )

    @property
    def gap(self) -> float:
        return self.e_plus - self.e_minus

    @property
    def width(self) -> float:
        return self.e_minus - self.e_bottom


@dataclass
class BoostedHamiltonian:
    """H_q = H + 2 q D - q^2 I, real and non-symmetric for q != 0."""

    bands: Tridiagonal
    q: float
    grid: Grid1D

    @property
    def matrix(self) -> np.ndarray:
        return self.bands.dense()


def _potential_vector(grid: Grid1D, pot: PotentialSpec) -> np.ndarray:
    if pot.kind == "sampled":
        vals = np.asarray(pot.values, dtype=float)
        if vals.shape != (grid.n,):
            raise ValueError(
                f"sampled potential needs {grid.n} values, got {vals.shape}"
            )
        if np.any(vals < 0):
            raise NegativePotentialError("sampled potential values must be >= 0")
        return vals.copy()
    if pot.kind == "delta_comb":
        pos = np.asarray(pot.positions, dtype=float)
        if np.any(pos <= 0) or np.any(pos >= grid.length):
            raise ValueError("delta comb positions must lie inside (0, L)")
        v = np.zeros(grid.n)
        sites = np.clip(np.rint(pos / grid.h).astype(int) - 1, 0, grid.n - 1)
        for s in sites:
            v[s] += pot.strength / grid.h
        return v
    raise ValueError(f"unknown potential kind {pot.kind!r}")


def build_hamiltonian(grid: Grid1D, pot: PotentialSpec) -> DiscreteHamiltonian:
    """Assemble the real symmetric Dirichlet Hamiltonian for the given potential."""
    bands = Tridiagonal.laplacian(grid, potential=_potential_vector(grid, pot))
    return DiscreteHamiltonian(bands=bands, grid=grid)


def _bulk_mask(evecs: np.ndarray, margin: int, edge_weight: float) -> np.ndarray:
    """False for eigenvectors carrying more than `edge_weight` of their norm
    within `margin` grid points of a boundary (Dirichlet surface states)."""
    n = evecs.shape[0]
    if n <= 4 * margin:
        return np.ones(evecs.shape[1], dtype=bool)
    w = evecs[:margin] ** 2
    w2 = evecs[n - margin:] ** 2
    edge = w.sum(axis=0) + w2.sum(axis=0)
    return edge <= edge_weight


def find_gap(
    h: DiscreteHamiltonian,
    lower_band_count_hint: int | None = None,
    *,
    energy_ceiling: float | None = None,
    spacing_factor: float = 10.0,
    min_gap: float = 1e-6,
    edge_margin: int = 5,
    edge_weight: float = 0.25,
    window: int = 5,
) -> GapSpectrum:
    """Locate the dominant spectral gap and return band-edge data.

    A spacing qualifies as a gap when it exceeds `spacing_factor` times the
    local mean spacing and `min_gap` in absolute energy.  Boundary-localized
    eigenvectors (more than `edge_weight` of their norm within `edge_margin`
    points of a wall) are excluded from band-edge determination.  With
    `lower_band_count_hint` the gap above that many kept states is returned;
    otherwise the largest qualifying spacing below `energy_ceiling` wins.
    """
    evals, evecs = h.eigensystem()
    keep = _bulk_mask(evecs, edge_margin, edge_weight)
    kept = evals[keep]
    if energy_ceiling is not None:
        kept = kept[kept <= energy_ceiling]
    if kept.size < 2:
        raise NoGapFoundError("fewer than two bulk eigenvalues in the search window")

    spacings = np.diff(kept)

    def qualifies(i: int) -> bool:
        lo = max(0, i - window)
        hi = min(spacings.size, i + window + 1)
        neighbors = np.concatenate([spacings[lo:i], spacings[i + 1:hi]])
        if neighbors.size == 0:
            return spacings[i] > min_gap
        return spacings[i] > spacing_factor * neighbors.mean() and spacings[i] > min_gap

    if lower_band_count_hint is not None:
        i = lower_band_count_hint - 1
        if not (0 <= i < spacings.size):
            raise NoGapFoundError(
                f"band count hint {lower_band_count_hint} outside spectrum"
            )
        if not qualifies(i):
            raise NoGapFoundError(
                f"spacing above state {lower_band_count_hint} does not qualify as a gap"
            )
        best = i
    else:
        candidates = [i for i in range(spacings.size) if qualifies(i)]
        if not candidates:
            raise NoGapFoundError("no eigenvalue spacing qualifies as a spectral gap")
        best = max(candidates, key=lambda i: spacings[i])

    e_bottom = max(float(kept[0]), 0.0)
    return GapSpectrum(e_minus=float(kept[best]), e_plus=float(kept[best + 1]), e_bottom=e_bottom)


def boost(h: DiscreteHamiltonian, q: float) -> BoostedHamiltonian:
    """Boosted Hamiltonian H_q = H + 2 q D - q^2 I.

    D antisymmetric makes H_q^T = H_{-q} exact (bitwise on the entries);
    the spectrum agrees with H up to O((q h)^2) discretization error on the
    band energies (the continuum similarity by e^{qx} is exact only for the
    differential operator).
    """
    d = Tridiagonal.central_difference(h.grid)
    b = h.bands
    bands = Tridiagonal(
        sub=b.sub + (2.0 * q) * d.sub, main=b.main - q * q, sup=b.sup + (2.0 * q) * d.sup
    )
    return BoostedHamiltonian(bands=bands, q=q, grid=h.grid)


def _check_shift_in_gap(h, gap, shift, theta_gap):
    if not (gap.e_minus < shift < gap.e_plus):
        raise ShiftInSpectrumError(
            f"E + q^2 = {shift:.6g} is outside the gap ({gap.e_minus:.6g}, {gap.e_plus:.6g})"
        )
    evals = h.eigenvalues()
    dist = float(np.min(np.abs(evals - shift)))
    if dist <= theta_gap:
        raise ShiftInSpectrumError(
            f"E + q^2 = {shift:.6g} is within {theta_gap:g} of an eigenvalue"
        )


def gamma_norm(
    h: DiscreteHamiltonian,
    q: float,
    energy: float,
    gap: GapSpectrum | None = None,
    *,
    theta_gap: float = THETA_GAP_DEFAULT,
) -> float:
    """||(H_q - E)^-1|| via the block embedding and the antilinear spectrum.

    Requires E + q^2 inside the spectral gap.  In one dimension the sup over
    |q| fixed is the max over +-q, and those two norms coincide exactly by
    the transpose identity, so a single solve suffices.
    """
    if gap is None:
        gap = find_gap(h)
    _check_shift_in_gap(h, gap, energy + q * q, theta_gap)
    evals = h.eigenvalues()
    if float(np.min(np.abs(evals - energy))) <= theta_gap:
        raise ShiftInSpectrumError(f"E = {energy:.6g} is within {theta_gap:g} of an eigenvalue")

    hq = boost(h, q)
    emb, conj = block_embed(hq.bands.dense(energy))
    return resolvent_norm(emb, conj, 0.0)


def bq_norm(
    h: DiscreteHamiltonian,
    gap: GapSpectrum,
    q: float,
    energy: float,
    *,
    frozen_shift: float | None = None,
    theta_gap: float = THETA_GAP_DEFAULT,
) -> float:
    """Operator norm of B_q = P+ |H-E-q^2|^(-1/2) (qD) |H-E-q^2|^(-1/2) P-.

    Built from the full eigendecomposition; P+/P- project onto eigenvalues
    above/below the shift.  With `frozen_shift` the weights use that fixed
    shift while qD still scales with q (diagnostic mode: the norm is then
    exactly linear in q).
    """
    shift = energy + q * q
    weight_shift = shift if frozen_shift is None else frozen_shift
    _check_shift_in_gap(h, gap, weight_shift, theta_gap)

    evals, evecs = h.eigensystem()
    upper = evals > weight_shift
    lower = ~upper
    w = 1.0 / np.sqrt(np.abs(evals - weight_shift))
    d = Tridiagonal.central_difference(h.grid)
    core = q * (evecs[:, upper].T @ d.matvec(evecs[:, lower]))
    b = (w[upper][:, None] * core) * w[lower][None, :]
    if b.size == 0:
        return 0.0
    return float(np.linalg.norm(b, 2))


def _indicator(grid: Grid1D, x: float, eps: float) -> np.ndarray:
    if x - eps <= 0.0 or x + eps >= grid.length:
        raise BallOutsideDomainError(
            f"ball [{x - eps:.6g}, {x + eps:.6g}] is not inside (0, {grid.length:g})"
        )
    chi = (np.abs(grid.points - x) <= eps).astype(float)
    return chi


def _check_energy_resolvent(h: DiscreteHamiltonian, energy: complex, theta_gap: float):
    evals = h.eigenvalues()
    dist = float(np.min(np.abs(evals - energy)))
    if dist <= theta_gap:
        raise ShiftInSpectrumError(
            f"E = {energy:.6g} is within {theta_gap:g} of the spectrum"
        )


def _averaged_kernels(h: DiscreteHamiltonian, energy: complex, pairs, eps: float, theta_gap: float):
    """omega_eps^-2 <chi_x1, (H - E)^-1 chi_x2> for each (x1, x2), one banded solve."""
    _check_energy_resolvent(h, energy, theta_gap)
    chi1 = np.empty((h.grid.n, len(pairs)))
    chi2 = np.empty_like(chi1)
    for j, (x1, x2) in enumerate(pairs):
        chi1[:, j] = _indicator(h.grid, x1, eps)
        chi2[:, j] = _indicator(h.grid, x2, eps)
    y = scipy.linalg.solve_banded((1, 1), h.bands.banded(energy), chi2)
    return h.grid.h * np.sum(chi1 * y, axis=0) / (2.0 * eps) ** 2


def avg_resolvent_kernel(
    h: DiscreteHamiltonian,
    energy: complex,
    x1: float,
    x2: float,
    eps: float,
    *,
    theta_gap: float = THETA_GAP_DEFAULT,
) -> complex:
    """Ball-averaged resolvent kernel over eps-balls at x1 and x2.

    Computes omega_eps^-2 <chi_x1, (H - E)^-1 chi_x2> with the indicator
    chi discretized on the grid (quadrature weight h per point) and
    omega_eps = 2 eps in one dimension.  Symmetric in (x1, x2); real for
    real E outside the spectrum.
    """
    val = _averaged_kernels(h, energy, [(x1, x2)], eps, theta_gap)[0]
    return complex(val) if np.iscomplexobj(val) else float(val)


def resolvent_kernel_scan(
    h: DiscreteHamiltonian,
    energy: complex,
    separations,
    eps: float,
    *,
    center: float | None = None,
    theta_gap: float = THETA_GAP_DEFAULT,
) -> np.ndarray:
    """Averaged kernel magnitudes |G_E(x1, x2)| at symmetric pairs.

    Pairs are centered at `center` (domain midpoint by default) with
    x1 = center - s/2, x2 = center + s/2.  Returns rows (separation, |G|);
    one banded solve covers every separation.
    """
    c = 0.5 * h.grid.length if center is None else center
    seps = np.asarray(separations, dtype=float)
    pairs = [(c - 0.5 * s, c + 0.5 * s) for s in seps]
    vals = _averaged_kernels(h, energy, pairs, eps, theta_gap)
    return np.column_stack([seps, np.abs(vals)])


@dataclass
class ProjectorDecay:
    """Result of the filled-band projector decay fit."""

    q_fit: float
    samples: np.ndarray          # rows (separation, |Pbar|)
    power_exponent: float        # fitted algebraic prefactor exponent
    fit_residual: float


def projector_decay(
    h: DiscreteHamiltonian,
    gap: GapSpectrum,
    eps: float,
    separations,
    *,
    center: float | None = None,
    fit_window: tuple[float, float] = (0.2, 0.6),
    power_prefactor: bool = True,
) -> ProjectorDecay:
    """Exponential decay rate of the filled-band projector kernel.

    Builds P- from eigenvectors with eigenvalue <= e_minus, averages it over
    eps-balls at symmetric pairs, and least-squares fits
    log |Pbar| = c - q s (- p log s) over separations inside
    `fit_window` * L.  The optional algebraic prefactor term absorbs the
    branch-point power law of the band kernel; samples must keep their balls
    at least 4 eps away from the walls.
    """
    evals, evecs = h.eigensystem()
    lower = evals <= gap.e_minus + 1e-12 * max(1.0, abs(gap.e_minus))
    if not np.any(lower):
        raise NoGapFoundError("no states at or below the lower band edge")
    phi = evecs[:, lower]

    length = h.grid.length
    c = 0.5 * length if center is None else center
    seps = np.asarray(separations, dtype=float)
    samples = np.empty((seps.size, 2))
    for i, s in enumerate(seps):
        x1, x2 = c - 0.5 * s, c + 0.5 * s
        if x1 - 4.0 * eps < 0.0 or x2 + 4.0 * eps > length:
            raise BallOutsideDomainError(
                f"separation {s:g}: sample points closer than 4*eps to a wall"
            )
        chi1 = _indicator(h.grid, x1, eps)
        chi2 = _indicator(h.grid, x2, eps)
        val = h.grid.h * (chi1 @ phi) @ (phi.T @ chi2) / (2.0 * eps) ** 2
        samples[i] = (s, abs(val))

    lo, hi = fit_window[0] * length, fit_window[1] * length
    mask = (samples[:, 0] >= lo) & (samples[:, 0] <= hi) & (samples[:, 1] > 0)
    if mask.sum() < (3 if power_prefactor else 2):
        raise ValueError("not enough samples inside the fit window")
    s_fit = samples[mask, 0]
    y = np.log(samples[mask, 1])
    cols = [np.ones_like(s_fit), -s_fit]
    if power_prefactor:
        cols.append(-np.log(s_fit))
    design = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.linalg.norm(design @ coef - y))
    q_fit = float(coef[1])
    p = float(coef[2]) if power_prefactor else 0.0
    return ProjectorDecay(q_fit=q_fit, samples=samples, power_exponent=p, fit_residual=resid)
