"""1D Dirichlet Schrodinger operators on a uniform grid.

The discretization uses the 3-point Laplacian, delta combs as v0/h on their
nearest grid site, and the antisymmetric central difference D for the boost
H_q = H + 2 q D - q^2 I.  This choice keeps H real symmetric and makes the
transpose identity H_q^T = H_{-q} hold bitwise, which is what the block
embedding needs to turn decay estimates into resolvent-norm estimates.
Operators store their three diagonals (Tridiagonal), not a dense matrix, and
every resolvent norm comes from one engine, min_lambda: shift-invert Lanczos on
the banded real doubling (for real H_q - E the block embedding).  Every
shifted solve, in scaling too, goes through one tridiagonal LU, _band_lu.

Fixed tolerances: THETA_GAP is the closest a shift may come to an eigenvalue
of H; find_gap's spacing test uses GAP_MIN and GAP_WINDOW, and it drops
surface states by EDGE_MARGIN and EDGE_WEIGHT; shift-invert ARPACK stops at
LANCZOS_TOL and gives up after LANCZOS_MAXITER restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .antilinear import SINGULAR_RTOL, _singular
from .errors import (
    BallOutsideDomainError,
    ConvergenceError,
    InvalidGapError,
    NegativePotentialError,
    NoGapFoundError,
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
LANCZOS_TOL = 1e-14  # relative Ritz residual at which shift-invert Lanczos stops
LANCZOS_MAXITER = 100  # ARPACK restarts before shift-invert Lanczos gives up


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
        if complex_ and not np.array_equal(self.sub, self.sup):
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
    columns.  Raises SingularShiftError at a zero pivot, and when a solve's
    largest entry is not below 1 / sqrt(tiny) (inf and NaN included): that
    puts sigma_min(a - shift) far below ABS_FLOOR, and its square would
    overflow inside Lanczos.
    """
    n = a.main.size
    # SciPy's ?gttrf wrapper refuses n < 3, and min_lambda takes any n: one
    # code path pads the diagonals to 3 with a decoupled unit diagonal
    pad = max(3 - n, 0)
    diagonals = [np.concatenate([d, np.full(pad, fill)])
                 for d, fill in ((a.sub, 0.0), (a.main - shift, 1.0), (a.sup, 0.0))]
    gttrf, gttrs = scipy.linalg.lapack.get_lapack_funcs(("gttrf", "gttrs"), diagonals)
    *lu, info = gttrf(*diagonals)
    if info > 0:
        raise SingularShiftError(f"shift {shift:.6g} makes A - shift singular: zero pivot {info}")
    overflow = 1.0 / math.sqrt(np.finfo(float).tiny)

    def solve(b, trans=0):
        b = np.concatenate([b, np.zeros((pad,) + np.shape(b)[1:])])
        x = gttrs(*lu, b, trans="NT"[trans])[0][:n]
        if not np.max(np.abs(x)) < overflow:
            raise SingularShiftError(f"shift {shift:.6g} makes A - shift singular to working precision")
        return x

    return solve


def _lanczos_pair(a: Tridiagonal, shift: complex) -> tuple[float, np.ndarray]:
    """(sigma_min(a - shift), w) with no singularity threshold.

    Shift-invert Lanczos (ARPACK eigsh) on S = a.doubling(shift): a - shift is
    factored once (_band_lu), and S^-1 is one or two n x n tridiagonal solves
    in the interleaved coordinates.  eigsh takes the largest-magnitude
    eigenvalue +-1 / sigma_min of S^-1 (at a rounding-level sigma_min both
    computed eigenvalues of S near 0 can share a sign) and w, the eigenvector
    of S at +-sigma_min.  Ritz values lie inside the spectrum, so the value is
    an upper bound on sigma_min.  Raises SingularShiftError from _band_lu, and
    ConvergenceError when ARPACK fails or exceeds LANCZOS_MAXITER restarts.
    """
    complex_doubling = a._complex_doubling(shift)
    lu_solve = _band_lu(a, shift)

    def solve(v):
        if complex_doubling:  # S w = v is (a - shift) u = conj(v) for w, v viewed as complex
            w = lu_solve(np.conj(v.view(complex))).view(float)
        else:  # S (x, y) = (M^T y, M x) for M = a - shift
            w = np.empty_like(v)
            w[0::2] = lu_solve(v[1::2])
            w[1::2] = lu_solve(v[0::2], trans=1)
        return w

    m = 2 * a.main.size
    op = scipy.sparse.linalg.LinearOperator((m, m), matvec=solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(m)
    try:
        theta, w = scipy.sparse.linalg.eigsh(
            op, k=1, which="LM", v0=v0, tol=LANCZOS_TOL, maxiter=LANCZOS_MAXITER
        )
    except scipy.sparse.linalg.ArpackError as exc:
        raise ConvergenceError(f"Lanczos for sigma_min at shift {shift:.6g}: {exc}") from None
    return 1.0 / abs(float(theta[0])), w[:, 0]


def min_lambda(a: Tridiagonal, shift: complex = 0.0) -> tuple[float, np.ndarray]:
    """(lambda, w): sigma_min(a - shift), the smallest antilinear eigenvalue, and w.

    w is the Lanczos eigenvector of a.doubling(shift) at +-lambda; for complex
    symmetric a, psi = w[0::2] + 1j * w[1::2] solves (a - shift) psi =
    +-lambda conj(psi), and i psi turns -lambda into +lambda.  Raises
    SingularShiftError when lambda < SINGULAR_RTOL * ||a||: the shift is
    numerically in the spectrum (antilinear._singular, with the bound
    max|main| + max|sub| + max|sup| >= ||a|| and the exact ||a|| as the top
    eigenvalue of a.doubling()).
    """
    lam, w = _lanczos_pair(a, shift)
    n = a.main.size
    bound = sum(float(np.max(np.abs(d), initial=0.0)) for d in (a.main, a.sub, a.sup))
    if _singular(lam, bound, lambda: float(scipy.linalg.eig_banded(
        a.doubling(), eigvals_only=True, select="i", select_range=(2 * n - 1, 2 * n - 1)
    )[0])):
        raise SingularShiftError(
            f"sigma_min = {lam:.3e} is below {SINGULAR_RTOL:g} * ||A||; "
            f"shift {shift:.6g} is numerically in the spectrum"
        )
    return lam, w


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

    def eigensystem(self):
        """Full (eigenvalues, eigenvectors), cached after the first call."""
        if self._eigh is None:
            self._eigh = scipy.linalg.eigh_tridiagonal(self.bands.main, self.bands.sup)
        return self._eigh

    def eigenvalues(self) -> np.ndarray:
        return self.eigensystem()[0]


@dataclass(frozen=True)
class GapSpectrum:
    """Two-band spectrum data: lower band [e_bottom, e_minus], upper band from e_plus."""

    e_minus: float
    e_plus: float
    e_bottom: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.e_bottom <= self.e_minus < self.e_plus):
            raise InvalidGapError(
                f"need 0 <= e_bottom <= e_minus < e_plus, got "
                f"({self.e_bottom}, {self.e_minus}, {self.e_plus})"
            )

    @property
    def gap(self) -> float:
        return self.e_plus - self.e_minus

    @property
    def width(self) -> float:
        return self.e_minus - self.e_bottom


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
    energy_ceiling: float | None = None,
    spacing_factor: float = 10.0,
) -> GapSpectrum:
    """Locate the dominant spectral gap and return band-edge data.

    A spacing qualifies as a gap when it exceeds `spacing_factor` times the
    mean of the GAP_WINDOW spacings on each side and GAP_MIN in absolute
    energy.  Boundary-localized eigenvectors (more than EDGE_WEIGHT of their
    norm within EDGE_MARGIN points of a wall) are excluded from band-edge
    determination.  The largest qualifying spacing below `energy_ceiling`
    wins.
    """
    evals, evecs = h.eigensystem()
    keep = _bulk_mask(evecs)
    kept = evals[keep]
    if energy_ceiling is not None:
        kept = kept[kept <= energy_ceiling]
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


def _check_clear_of_spectrum(h: DiscreteHamiltonian, x: complex, what: str):
    """Raise ShiftInSpectrumError when an eigenvalue of H lies within THETA_GAP of x."""
    z = complex(x)
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
    """||(H_q - E)^-1|| = 1 / sigma_min(H_q - E) from the banded doubling.

    H_q - E = M is real, so the doubling is [[0, M^T], [M, 0]] (see
    Tridiagonal.doubling) and min_lambda takes sigma_min(M) from it; no
    dense matrix is formed.  Requires E + q^2 inside the spectral gap and E,
    E + q^2 farther than THETA_GAP from every eigenvalue of H.  In one
    dimension the sup over |q| fixed is the max over +-q, and those two
    norms coincide exactly by the transpose identity, so a single solve
    suffices.  Raises SingularShiftError when sigma_min < SINGULAR_RTOL *
    ||H_q||.
    """
    _check_shift_in_gap(h, gap, energy + q * q)
    _check_clear_of_spectrum(h, energy, "E")
    return 1.0 / min_lambda(boost(h, q), energy)[0]


def bq_norm(
    h: DiscreteHamiltonian,
    gap: GapSpectrum,
    q: float,
    energy: float,
    *,
    frozen_shift: float | None = None,
) -> float:
    """Operator norm of B_q = P+ |H-E-q^2|^(-1/2) (qD) |H-E-q^2|^(-1/2) P-.

    Built from the full eigendecomposition; P+/P- project onto eigenvalues
    above/below the shift.  With `frozen_shift` the weights use that fixed
    shift while qD still scales with q (diagnostic mode: the norm is then
    exactly linear in q).
    """
    shift = energy + q * q
    weight_shift = shift if frozen_shift is None else frozen_shift
    _check_shift_in_gap(h, gap, weight_shift)

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


def _averaged_kernels(h: DiscreteHamiltonian, energy: complex, pairs, eps: float):
    """omega_eps^-2 <chi_x1, (H - E)^-1 chi_x2> for each (x1, x2), one tridiagonal solve."""
    _check_clear_of_spectrum(h, energy, "E")
    chi1 = np.empty((h.grid.n, len(pairs)))
    chi2 = np.empty_like(chi1)
    for j, (x1, x2) in enumerate(pairs):
        chi1[:, j] = _indicator(h.grid, x1, eps)
        chi2[:, j] = _indicator(h.grid, x2, eps)
    y = _band_lu(h.bands, energy)(chi2)
    return h.grid.h * np.sum(chi1 * y, axis=0) / (2.0 * eps) ** 2


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
    c = 0.5 * h.grid.length
    seps = np.asarray(separations, dtype=float)
    pairs = [(c - 0.5 * s, c + 0.5 * s) for s in seps]
    vals = _averaged_kernels(h, energy, pairs, eps)
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
    fit_window: tuple[float, float] = (0.2, 0.6),
) -> ProjectorDecay:
    """Exponential decay rate of the filled-band projector kernel.

    Builds P- from eigenvectors with eigenvalue <= e_minus, averages it over
    eps-balls at pairs symmetric about the domain midpoint, and least-squares
    fits log |Pbar| = c - q s - p log s over separations inside
    `fit_window` * L.  The algebraic prefactor term absorbs the branch-point
    power law of the band kernel; samples must keep their balls at least
    4 eps away from the walls.
    """
    evals, evecs = h.eigensystem()
    lower = evals <= gap.e_minus + 1e-12 * max(1.0, abs(gap.e_minus))
    if not np.any(lower):
        raise NoGapFoundError("no states at or below the lower band edge")
    phi = evecs[:, lower]

    length = h.grid.length
    c = 0.5 * length
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
