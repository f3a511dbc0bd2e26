"""1D Dirichlet Schrodinger operators on a uniform grid.

The discretization uses the 3-point Laplacian, delta combs as v0/h on their
nearest grid site, and the antisymmetric central difference D for the boost
H_q = H + 2 q D - q^2 I.  This choice keeps H real symmetric and makes the
transpose identity H_q^T = H_{-q} hold bitwise, which is what the block
embedding needs to turn decay estimates into resolvent-norm estimates.
Operators store their three diagonals (Tridiagonal), not a dense matrix, and
every resolvent norm, dense ones too, comes from one engine,
antilinear._lanczos, a Lanczos on the positive (X^* X)^-1 of X = T - shift;
min_lambda runs it on one tridiagonal LU of X (for complex symmetric X this
is K^2, K = X^-1 o conj; for real H_q - E it solves with X and X^T, the
block embedding at n x n cost).  Every banded shifted solve, in scaling
too, goes through one tridiagonal LU, _band_lu.  find_gap, projector_decay
and bq_norm compute only the eigenpairs of H up to the gap, never all n;
every eigen-decomposition holds its result plus O(n) workspace (MRRR for all).
All three kernels average over eps-balls with one sampler, _ball_average,
which refuses eps <= 0 and a ball without a grid point (PreconditionError).
BLAS and LAPACK run here on one OpenBLAS thread, process-wide while they
run (_blas.one_blas_thread); a user-set OPENBLAS_NUM_THREADS wins.  A shift
or energy that is not finite raises PreconditionError (_band_lu and
_check_clear_of_spectrum).

Fixed tolerances: THETA_GAP is the closest a shift may come to an eigenvalue
of H; find_gap's spacing test uses GAP_MIN and GAP_WINDOW, and it drops
surface states by EDGE_MARGIN and EDGE_WEIGHT; shift-invert Lanczos holds
NCV basis vectors, stops at LANCZOS_TOL and gives up after LANCZOS_MAXITER
restarts (all three in antilinear).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._blas import one_blas_thread
from .antilinear import _check_solve, _lanczos, _singular
from .decay import GapSpectrum
from .errors import (
    BallOutsideDomainError,
    ConvergenceError,
    NegativePotentialError,
    NoGapFoundError,
    PreconditionError,
    ShiftInSpectrumError,
    SingularShiftError,
)

__all__ = [
    "Tridiagonal",
    "min_lambda",
    "Grid1D",
    "PotentialSpec",
    "DiscreteHamiltonian",
    "GapSpectrum",
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

THETA_GAP = 1e-6     # shifts closer than this to an eigenvalue of H are refused
GAP_MIN = 1e-6       # absolute spacing a gap must exceed
GAP_WINDOW = 5       # spacings on each side that set the local mean spacing
EDGE_MARGIN = 5      # grid points next to a wall that count as its edge
EDGE_WEIGHT = 0.25   # edge share of the norm above which an eigenvector is a surface state


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
        out = np.diag(self.main - shift).astype(np.result_type(self.main, self.sub, self.sup, shift))
        idx = np.arange(self.sub.size)
        out[idx + 1, idx] = self.sub
        out[idx, idx + 1] = self.sup
        return out

    def doubling(self, shift: complex = 0.0) -> np.ndarray:
        """Upper band storage (kd = 3) of a real symmetric 2n doubling of self - shift * I.

        Its eigenvalues are +-sigma_k(self - shift), and the coordinates are
        interleaved as (x_1, y_1, x_2, y_2, ...), which keeps the band at 3.
        A complex symmetric T = B + i C gives antilinear.real_doubling's
        [[B, -C], [-C, -B]]: an eigenvector at lambda solves
        (T - shift) u = lambda conj(u) with u = x + i y.  A real T = M gives
        [[0, M^T], [M, 0]], to which the 4n doubling of antilinear.block_embed(M)
        reduces for real M.  The band is what scipy.linalg.eig_banded takes.
        """
        main = self.main - shift
        ab = np.zeros((4, 2 * main.size))
        if self._complex_doubling(shift):
            ab[3, 0::2] = main.real
            ab[3, 1::2] = -main.real
            ab[2, 1::2] = -main.imag           # (x_i, y_i)
            ab[2, 2::2] = -self.sup.imag       # (y_i, x_i+1)
            ab[1, 2::2] = self.sup.real        # (x_i, x_i+1)
            ab[1, 3::2] = -self.sup.real       # (y_i, y_i+1)
            ab[0, 3::2] = -self.sup.imag       # (x_i, y_i+1)
        else:
            ab[2, 1::2] = main                 # (x_i, y_i) = M[i, i]
            ab[2, 2::2] = self.sup             # (y_i, x_i+1) = M[i, i + 1]
            ab[0, 3::2] = self.sub             # (x_i, y_i+1) = M[i + 1, i]
        return ab

    def _complex_doubling(self, shift: complex) -> bool:
        """Whether self - shift is complex; that doubling needs self symmetric (ValueError otherwise)."""
        complex_ = np.issubdtype(np.result_type(self.main, self.sub, self.sup, shift), np.complexfloating)
        # laplacian's bands share one off-diagonal array: symmetric without the O(n) compare
        if complex_ and self.sub is not self.sup and not np.array_equal(self.sub, self.sup):
            raise ValueError("the doubling of a complex tridiagonal needs it symmetric")
        return complex_

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """self @ x for a vector or a block of column vectors."""
        col = (slice(None),) + (None,) * (np.ndim(x) - 1)
        y = self.main[col] * x
        y[:-1] += self.sup[col] * x[1:]
        y[1:] += self.sub[col] * x[:-1]
        return y


def _band_lu(a: Tridiagonal, shift: complex):
    """Factor a - shift once (?gttrf) and return its solve, solve(b, trans=0) -> x.

    trans = 1 solves with the plain transpose; b is a vector or a block of
    columns.  Raises PreconditionError for a shift that is not finite, and
    SingularShiftError at a zero pivot and from antilinear._check_solve.
    """
    if not np.isfinite(shift):
        raise PreconditionError(f"shift {shift} must be finite")
    n = a.main.size
    diagonals = [a.sub, a.main - shift, a.sup]
    # SciPy's ?gttrf wrapper refuses n < 3, and min_lambda takes any n: one
    # code path pads the diagonals to 3 with a decoupled unit diagonal
    pad = max(3 - n, 0)
    if pad:
        diagonals = [np.concatenate([d, np.full(pad, fill)]) for d, fill in zip(diagonals, (0.0, 1.0, 0.0))]
    gttrf, gttrs = scipy.linalg.lapack.get_lapack_funcs(("gttrf", "gttrs"), diagonals)
    *lu, info = gttrf(*diagonals, overwrite_d=True)  # the shifted main diagonal is this call's own copy
    if info > 0:
        raise SingularShiftError(f"shift {shift:.6g} makes A - shift singular: zero pivot {info}")
    singular = f"shift {shift:.6g} makes A - shift singular to working precision"

    def solve(b, trans=0):
        if pad:
            b = np.concatenate([b, np.zeros((pad,) + np.shape(b)[1:])])
        return _check_solve(gttrs(*lu, b, trans="NT"[trans])[0][:n], singular)

    return solve


@one_blas_thread
def _lanczos_pair(a: Tridiagonal, shift: complex) -> tuple:
    """(sigma_min(a - shift), x, k) with no singularity threshold.

    antilinear._lanczos on (X^* X)^-1 for X = a - shift, factored once
    (_band_lu): X^-T is X^-1 for complex symmetric a and the transposed solve
    for real a.  x is a unit right singular vector of X at sigma_min, and
    k(v) = X^-1 conj(v) applies K = X^-1 o conj with the same LU.  Raises
    ValueError for a complex a that is not symmetric, PreconditionError and
    SingularShiftError from _band_lu, ConvergenceError past LANCZOS_MAXITER
    restarts.
    """
    complex_symmetric = a._complex_doubling(shift)
    lu_solve = _band_lu(a, shift)
    solve_t = lu_solve if complex_symmetric else (lambda b: lu_solve(b, 1))
    sigma, x = _lanczos(lu_solve, solve_t, a.main.size, f"sigma_min at shift {shift:.6g}")
    return sigma, x, lambda v: lu_solve(np.conj(v))


@one_blas_thread
def min_lambda(a: Tridiagonal, shift: complex = 0.0) -> tuple:
    """(lambda, x, k): sigma_min(a - shift), the smallest antilinear eigenvalue, x and k.

    x is a unit right singular vector of X = a - shift at lambda and k(v) =
    X^-1 conj(v) (_lanczos_pair).  For complex symmetric a, psi = x +
    lambda k(x) solves X psi = lambda conj(psi), as does i (x - lambda k(x)),
    one of which is not zero.  Raises SingularShiftError when lambda <
    SINGULAR_RTOL * ||a||: the shift is numerically in the spectrum
    (antilinear._singular, with the bounds max |entry| <= ||a|| <= max|main| +
    max|sub| + max|sup|, and the exact ||a|| as the top eigenvalue of
    a.doubling() only between them).
    """
    lam, x, k = _lanczos_pair(a, shift)
    n = a.main.size
    maxima = [float(np.max(np.abs(d), initial=0.0)) for d in (a.main, a.sub, a.sup)]
    _singular(lam, max(maxima), sum(maxima), lambda: float(scipy.linalg.eig_banded(
        a.doubling(), eigvals_only=True, select="i", select_range=(2 * n - 1, 2 * n - 1)
    )[0]), shift)
    return lam, x, k


@dataclass(frozen=True)
class PotentialSpec:
    """Scalar potential: sampled values (>= 0) at the grid points, or a delta comb of strength > 0."""

    kind: str
    values: np.ndarray | None = None
    positions: np.ndarray | None = None
    strength: float = 0.0

    def __post_init__(self):
        if self.kind == "sampled" and np.any(np.asarray(self.values, dtype=float) < 0):
            raise NegativePotentialError("sampled potential values must be >= 0")
        if self.kind == "delta_comb" and self.strength <= 0:
            raise ValueError("delta comb strength v0 must be positive")

    @classmethod
    def sampled(cls, values) -> "PotentialSpec":
        return cls(kind="sampled", values=np.asarray(values, dtype=float))

    @classmethod
    def delta_comb(cls, positions, strength: float) -> "PotentialSpec":
        return cls(kind="delta_comb", positions=np.asarray(positions, dtype=float), strength=float(strength))


@dataclass
class DiscreteHamiltonian:
    """Real symmetric tridiagonal H: 3-point Laplacian plus diagonal potential."""

    bands: Tridiagonal
    grid: Grid1D
    _eigh: tuple | None = field(default=None, repr=False, compare=False)

    @one_blas_thread
    def eigensystem(self, ceiling: float = math.inf):
        """(eigenvalues, eigenvectors) at or below `ceiling` (all n pairs by default), ascending.

        Result plus O(n) workspace: all pairs by MRRR (?stemr), a finite ceiling by ?stebz + ?stein
        (SciPy's ?stemr allocates n x n for any window), caching the widest window to slice it for
        narrower ones.  A LAPACK failure raises ConvergenceError."""
        if self._eigh is None or self._eigh[0] < ceiling:
            d, e = np.asarray_chkfinite(self.bands.main), np.asarray_chkfinite(self.bands.sup)
            if ceiling == math.inf:
                try:
                    pairs = scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stemr")
                except np.linalg.LinAlgError as exc:
                    raise ConvergenceError(f"?stemr failed on all pairs at n = {d.size}: {exc}") from exc
            else:
                stebz, stein = scipy.linalg.lapack.get_lapack_funcs(("stebz", "stein"), (d, e))
                # the values in (-inf, ceiling] (range 1), LAPACK's default tolerance, block order for ?stein
                m, w, block, split, info = stebz(d, e, 1, -math.inf, ceiling, 1, 1, 0.0, "B")
                v, fail = stein(d, e, w[:m], block, split)
                if info or fail:
                    raise ConvergenceError(f"?stebz/?stein failed at n = {d.size}: info {info}, {fail}")
                # the block order is ascending unless H splits (a zero off-diagonal): then sort, in a copy
                pairs = (w[:m], v) if np.all(np.diff(w[:m]) >= 0) else (np.sort(w[:m]), v[:, np.argsort(w[:m])])
            self._eigh = (ceiling, *pairs)
        _, evals, evecs = self._eigh
        k = int(np.searchsorted(evals, ceiling, side="right"))
        return evals[:k], evecs[:, :k]


def _potential_vector(grid: Grid1D, pot: PotentialSpec) -> np.ndarray:
    if pot.kind == "sampled":
        vals = np.asarray(pot.values, dtype=float)
        if vals.shape != (grid.n,):
            raise ValueError(
                f"sampled potential needs {grid.n} values, got {vals.shape}"
            )
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


def _bulk_mask(evecs: np.ndarray) -> np.ndarray:
    """False for eigenvectors carrying more than EDGE_WEIGHT of their norm
    within EDGE_MARGIN grid points of a boundary (Dirichlet surface states)."""
    n = evecs.shape[0]
    if n <= 4 * EDGE_MARGIN:
        return np.ones(evecs.shape[1], dtype=bool)
    w = evecs[:EDGE_MARGIN] ** 2
    w2 = evecs[n - EDGE_MARGIN:] ** 2
    edge = w.sum(axis=0) + w2.sum(axis=0)
    return edge <= EDGE_WEIGHT


def find_gap(
    h: DiscreteHamiltonian,
    *,
    energy_ceiling: float,
    spacing_factor: float = 10.0,
) -> GapSpectrum:
    """Locate the dominant spectral gap and return band-edge data.

    A spacing qualifies as a gap when it exceeds `spacing_factor` times the
    mean of the GAP_WINDOW spacings on each side and GAP_MIN in absolute
    energy.  Boundary-localized eigenvectors (more than EDGE_WEIGHT of their
    norm within EDGE_MARGIN points of a wall) are excluded from band-edge
    determination.  The largest qualifying spacing below `energy_ceiling`
    wins, and only the eigenpairs up to the ceiling are computed (all n
    for math.inf).
    """
    evals, evecs = h.eigensystem(energy_ceiling)
    kept = evals[_bulk_mask(evecs)]
    if kept.size < 2:
        raise NoGapFoundError("fewer than two bulk eigenvalues in the search window")

    spacings = np.diff(kept)

    def qualifies(i: int) -> bool:
        lo = max(0, i - GAP_WINDOW)
        hi = min(spacings.size, i + GAP_WINDOW + 1)
        neighbors = np.concatenate([spacings[lo:i], spacings[i + 1:hi]])
        if neighbors.size == 0:
            return spacings[i] > GAP_MIN
        return spacings[i] > spacing_factor * neighbors.mean() and spacings[i] > GAP_MIN

    candidates = [i for i in range(spacings.size) if qualifies(i)]
    if not candidates:
        raise NoGapFoundError("no eigenvalue spacing qualifies as a spectral gap")
    best = max(candidates, key=lambda i: spacings[i])

    e_bottom = max(float(kept[0]), 0.0)
    return GapSpectrum(e_minus=float(kept[best]), e_plus=float(kept[best + 1]), e_bottom=e_bottom)


def boost(h: DiscreteHamiltonian, q: float) -> Tridiagonal:
    """Bands of the boosted Hamiltonian H_q = H + 2 q D - q^2 I.

    D antisymmetric makes H_q^T = H_{-q} exact (bitwise on the entries);
    the spectrum agrees with H up to O((q h)^2) discretization error on the
    band energies (the continuum similarity by e^{qx} is exact only for the
    differential operator).
    """
    d = Tridiagonal.central_difference(h.grid)
    b = h.bands
    return Tridiagonal(
        sub=b.sub + (2.0 * q) * d.sub, main=b.main - q * q, sup=b.sup + (2.0 * q) * d.sup
    )


@one_blas_thread
def _check_clear_of_spectrum(h: DiscreteHamiltonian, x: complex, what: str):
    """Raise PreconditionError when x is not finite, ShiftInSpectrumError when an eigenvalue of H is within THETA_GAP."""
    z = complex(x)
    if not np.isfinite(z):
        raise PreconditionError(f"{what} = {x} must be finite")
    if abs(z.imag) >= THETA_GAP:
        return
    half = math.sqrt(THETA_GAP * THETA_GAP - z.imag * z.imag)
    near = scipy.linalg.eigh_tridiagonal(
        h.bands.main, h.bands.sup, eigvals_only=True, select="v",
        select_range=(z.real - half, z.real + half),
    )
    if near.size:
        raise ShiftInSpectrumError(f"{what} = {x:.6g} is within {THETA_GAP:g} of an eigenvalue")


def _check_shift_in_gap(h, gap, shift):
    if not (gap.e_minus < shift < gap.e_plus):
        raise ShiftInSpectrumError(
            f"E + q^2 = {shift:.6g} is outside the gap ({gap.e_minus:.6g}, {gap.e_plus:.6g})"
        )
    _check_clear_of_spectrum(h, shift, "E + q^2")


def gamma_norm(h: DiscreteHamiltonian, q: float, energy: float, gap: GapSpectrum) -> float:
    """||(H_q - E)^-1|| = 1 / sigma_min(H_q - E) from one tridiagonal LU.

    H_q - E = M is real, and min_lambda takes sigma_min(M) from (M^T M)^-1,
    one solve with M^T and one with M per Lanczos step, the block embedding
    diag(M, M^T) at n x n cost; no dense matrix is formed.  Requires E + q^2 inside the spectral gap and E,
    E + q^2 farther than THETA_GAP from every eigenvalue of H.  In one
    dimension the sup over |q| fixed is the max over +-q, and those two
    norms coincide exactly by the transpose identity, so a single solve
    suffices.  Raises SingularShiftError when sigma_min < SINGULAR_RTOL *
    ||H_q||.
    """
    _check_shift_in_gap(h, gap, energy + q * q)
    _check_clear_of_spectrum(h, energy, "E")
    return 1.0 / min_lambda(boost(h, q), energy)[0]


@one_blas_thread
def bq_norm(
    h: DiscreteHamiltonian,
    gap: GapSpectrum,
    q: float,
    energy: float,
    *,
    frozen_shift: float | None = None,
) -> float:
    """Operator norm of B_q = P+ |H-E-q^2|^(-1/2) (qD) |H-E-q^2|^(-1/2) P-.

    P+/P- project above/below the weight shift s; only the k pairs (L-, U-)
    below s are computed.  With Y = qD U- |L- - s|^(-1/2), B_q^T B_q =
    Y^T P+ (H - s)^-1 P+ Y (H - s > 0 on P+): one k-column _band_lu solve.
    `frozen_shift` fixes the weights' shift while qD still scales with q
    (diagnostic mode: the norm is then exactly linear in q).
    """
    shift = energy + q * q
    weight_shift = shift if frozen_shift is None else frozen_shift
    _check_shift_in_gap(h, gap, weight_shift)

    evals, evecs = h.eigensystem(weight_shift)
    if evals.size == 0:
        return 0.0
    y = Tridiagonal.central_difference(h.grid).matvec(evecs) * (q / np.sqrt(weight_shift - evals))
    y -= evecs @ (evecs.T @ y)
    g = y.T @ _band_lu(h.bands, weight_shift)(y)
    return float(np.sqrt(np.linalg.eigvalsh(g)[-1]))


def _ball_average(grid: Grid1D, pairs, eps: float, apply) -> np.ndarray:
    """omega_eps^-2 <chi_x1, K chi_x2> for each row (x1, x2) of `pairs`, where apply(b) = K b.

    chi_x is 1 at the grid points with |t - x| <= eps (weight h each),
    omega_eps = 2 eps, and the chi_x2 reach `apply` as one n x k block.
    Raises PreconditionError when eps <= 0 or a ball holds no grid point,
    BallOutsideDomainError when a ball is not inside (0, L).
    """
    if not eps > 0.0:
        raise PreconditionError(f"ball radius eps = {eps:g} must be positive")
    centres = np.asarray(pairs, dtype=float).ravel()  # x1, x2 of each pair in turn
    outside = centres[(centres - eps <= 0.0) | (centres + eps >= grid.length)]
    if outside.size:
        raise BallOutsideDomainError(f"ball at {outside[0]:.6g} +- {eps:g} is not inside (0, {grid.length:g})")
    chi = np.abs(grid.points[:, None] - centres) <= eps
    empty = centres[~chi.any(axis=0)]
    if empty.size:
        raise PreconditionError(f"ball at {empty[0]:.6g} +- {eps:g} holds no grid point (h = {grid.h:.6g})")
    chi1, chi2 = chi[:, 0::2].astype(float), chi[:, 1::2].astype(float)
    return grid.h * np.sum(chi1 * apply(chi2), axis=0) / (2.0 * eps) ** 2


def _centred_pairs(grid: Grid1D, separations) -> tuple[np.ndarray, np.ndarray]:
    """(separations s, rows (c - s/2, c + s/2)) about the domain midpoint c."""
    seps = np.asarray(separations, dtype=float)
    return seps, 0.5 * grid.length + np.multiply.outer(seps, [-0.5, 0.5])


@one_blas_thread
def _averaged_kernels(h: DiscreteHamiltonian, energy: complex, pairs, eps: float):
    """omega_eps^-2 <chi_x1, (H - E)^-1 chi_x2> for each (x1, x2), one tridiagonal solve."""
    _check_clear_of_spectrum(h, energy, "E")
    return _ball_average(h.grid, pairs, eps, _band_lu(h.bands, energy))


def avg_resolvent_kernel(
    h: DiscreteHamiltonian, energy: complex, x1: float, x2: float, eps: float
) -> complex:
    """Ball-averaged resolvent kernel over eps-balls at x1 and x2.

    Computes omega_eps^-2 <chi_x1, (H - E)^-1 chi_x2> with the indicator
    chi discretized on the grid (quadrature weight h per point) and
    omega_eps = 2 eps in one dimension.  Symmetric in (x1, x2); real for
    real E outside the spectrum.
    """
    val = _averaged_kernels(h, energy, [(x1, x2)], eps)[0]
    return complex(val) if np.iscomplexobj(val) else float(val)


def resolvent_kernel_scan(
    h: DiscreteHamiltonian, energy: complex, separations, eps: float
) -> np.ndarray:
    """Averaged kernel magnitudes |G_E(x1, x2)| at symmetric pairs.

    Pairs are centered at the domain midpoint c with x1 = c - s/2,
    x2 = c + s/2.  Returns rows (separation, |G|); one banded solve covers
    every separation.
    """
    seps, pairs = _centred_pairs(h.grid, separations)
    return np.column_stack([seps, np.abs(_averaged_kernels(h, energy, pairs, eps))])


@dataclass
class ProjectorDecay:
    """Result of the filled-band projector decay fit."""

    q_fit: float
    samples: np.ndarray          # rows (separation, |Pbar|)
    power_exponent: float        # fitted algebraic prefactor exponent
    fit_residual: float


@one_blas_thread
def projector_decay(
    h: DiscreteHamiltonian,
    gap: GapSpectrum,
    eps: float,
    separations,
    *,
    fit_window: tuple[float, float] = (0.2, 0.6),
) -> ProjectorDecay:
    """Exponential decay rate of the filled-band projector kernel.

    Builds P- from the eigenpairs at or below e_minus, the only ones computed,
    averages it over eps-balls at pairs symmetric about the domain midpoint,
    and least-squares fits log |Pbar| = c - q s - p log s over separations inside
    `fit_window` * L.  The algebraic prefactor term absorbs the branch-point
    power law of the band kernel; samples must keep their balls at least
    4 eps away from the walls.
    """
    _, phi = h.eigensystem(gap.e_minus + 1e-12 * max(1.0, abs(gap.e_minus)))
    if phi.shape[1] == 0:
        raise NoGapFoundError("no states at or below the lower band edge")

    length = h.grid.length
    seps, pairs = _centred_pairs(h.grid, separations)
    near_wall = seps[(pairs[:, 0] - 4.0 * eps < 0.0) | (pairs[:, 1] + 4.0 * eps > length)]
    if near_wall.size:
        raise BallOutsideDomainError(f"separation {near_wall[0]:g}: sample points closer than 4*eps to a wall")
    vals = _ball_average(h.grid, pairs, eps, lambda chi2: phi @ (phi.T @ chi2))
    samples = np.column_stack([seps, np.abs(vals)])

    lo, hi = fit_window[0] * length, fit_window[1] * length
    mask = (samples[:, 0] >= lo) & (samples[:, 0] <= hi) & (samples[:, 1] > 0)
    if mask.sum() < 3:
        raise ValueError("not enough samples inside the fit window")
    s_fit = samples[mask, 0]
    y = np.log(samples[mask, 1])
    design = np.column_stack([np.ones_like(s_fit), -s_fit, -np.log(s_fit)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.linalg.norm(design @ coef - y))
    return ProjectorDecay(
        q_fit=float(coef[1]), samples=samples, power_exponent=float(coef[2]), fit_residual=resid
    )
