"""Complex-scaled 1D Hamiltonians and resonance machinery.

H_theta(gamma) = -e^{-2 theta} Lap + v(e^theta x) + gamma w(e^theta x) on a
Dirichlet grid over [0, L] is complex symmetric by construction, so its
resolvent norm is available through the antilinear eigenvalue problem with
plain entrywise conjugation.  The matrix is tridiagonal: resolvent norms and
their eigenvectors come from one engine, schrodinger.min_lambda, a Lanczos
on K^2 = |H - z|^-2, K = (H - z)^-1 o conj, with one tridiagonal LU
(sigma_min is its value without the singularity threshold), and the singular
values below the essential floor from the banded real doubling
(Tridiagonal.doubling); no dense matrix is formed.  Rotating theta
moves the discretized continuum string by -2 Im theta while discrete points
(bound states and uncovered resonances) stay put; classification compares
each eigenvalue's first-order shift psi^T dH psi / psi^T psi against both
predictions.  Only the eigenvalues near the classification window are
computed, by shift-invert Arnoldi on the one tridiagonal LU (_band_lu).
BLAS, LAPACK and ARPACK run here on one OpenBLAS thread, process-wide while
they run (_blas.one_blas_thread); a user-set OPENBLAS_NUM_THREADS wins.

Fixed thresholds: classify_spectrum labels with STAT_FACTOR, ROT_FACTOR,
RES_IM_TOL and BOUND_RE_MAX, and its eigenvalue search starts from
ARNOLDI_K0 eigenvalues; resolvent_norm_at accepts an eigenvector whose
residual is within RESIDUAL_RTOL; essential_floor_check counts within
FLOOR_RTOL of the floor; fit_relative_bound draws FIT_SAMPLES states from
FIT_SEED.  No CLI path calls fit_relative_bound: its tests and the
benchmark's span tracer are its readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from ._blas import one_blas_thread
from .antilinear import LANCZOS_MAXITER, LANCZOS_TOL, _fix_sign
from .errors import ConvergenceError, PairingAmbiguityError, SingularShiftError, StripViolationError
from .schrodinger import Grid1D, Tridiagonal, _band_lu, _lanczos_pair, min_lambda

__all__ = [
    "DilationPotential",
    "ScaledHamiltonian",
    "SpectrumClassification",
    "ResolventNorm",
    "FloorReport",
    "RelativeBound",
    "ResonanceResult",
    "PerturbationScan",
    "build_scaled",
    "classify_spectrum",
    "ray_distance",
    "resolvent_norm_at",
    "essential_floor_check",
    "locate_resonance",
    "polish_eigenvalue",
    "sigma_min",
    "exact_relative_bound",
    "fit_relative_bound",
    "perturbation_scan",
]

POLISH_TOL = 1e-10         # relative eigenvalue change that stops polish_eigenvalue
POLISH_MAX_ITER = 50       # Rayleigh-quotient steps before polish_eigenvalue gives up
RESIDUAL_RTOL = 1e-12      # antilinear residual, relative to ||H - z||, that counts as converged
STAT_FACTOR = 0.1          # stationarity below this * |z| |dtheta| marks a discrete point
ROT_FACTOR = 0.3           # rotation residual below this * |z| |e^{-2 dtheta} - 1| is continuum
RES_IM_TOL = 1e-3          # a discrete point with Im z below -RES_IM_TOL is a resonance
BOUND_RE_MAX = 0.0         # a real discrete point with Re z below this is a bound state
ARNOLDI_K0 = 32            # eigenvalues the first Arnoldi pass of the window search asks for
FLOOR_RTOL = 0.02          # essential_floor_check's band around the floor, relative to it
FIT_SAMPLES = 64           # random states in fit_relative_bound's sample
FIT_SEED = 0               # seed of fit_relative_bound's random states


@dataclass(frozen=True)
class _R2Exp:
    """x -> alpha x^2 e^{-x}, equal to every other instance with the same alpha."""

    alpha: float

    def __call__(self, x):
        return self.alpha * x * x * np.exp(-x)


@dataclass(frozen=True)
class DilationPotential:
    """Dilation analytic potential on the half line, real on the real axis.

    `v` (and the optional perturbation `w`) must accept complex arguments;
    `strip_bound` is the width I0 of the analyticity strip in Im theta.
    """

    v: Callable[[np.ndarray], np.ndarray]
    strip_bound: float
    w: Callable[[np.ndarray], np.ndarray] | None = None

    @classmethod
    def alpha_r2_exp(cls, alpha: float, *, perturbation_alpha: float | None = None) -> "DilationPotential":
        """Built-in family v(x) = alpha x^2 e^{-x}; analytic for |Im theta| < pi/2.

        With `perturbation_alpha` set, w is the same shape with that strength
        (perturbation_alpha == alpha gives w = v).
        """
        w = _R2Exp(perturbation_alpha) if perturbation_alpha is not None else None
        return cls(v=_R2Exp(alpha), strip_bound=0.5 * math.pi, w=w)


@dataclass
class ScaledHamiltonian:
    """Discretized H_theta(gamma); symmetric bands, so the matrix equals its transpose bitwise."""

    bands: Tridiagonal
    grid: Grid1D
    theta: complex
    gamma: float
    potential: DilationPotential

    @property
    def matrix(self) -> np.ndarray:
        return self.bands.dense()

    @one_blas_thread
    def eigenvalues(self) -> np.ndarray:
        """Every eigenvalue, from dense eigvals; the window search reads it only for 2k >= n."""
        return np.linalg.eigvals(self.matrix)

    @property
    def norm_estimate(self) -> float:
        """Cheap upper bound on the spectral norm (max row sum)."""
        row = np.abs(self.bands.main)
        row[:-1] += np.abs(self.bands.sup)
        row[1:] += np.abs(self.bands.sub)
        return float(np.max(row))


def _dilated(f: Callable[[np.ndarray], np.ndarray], grid: Grid1D, theta: complex) -> np.ndarray:
    """f(e^theta x) at the grid points, as a complex array."""
    return np.asarray(f(np.exp(theta) * grid.points.astype(complex)), dtype=complex)


def build_scaled(
    pot: DilationPotential, grid: Grid1D, theta: complex, gamma: float = 0.0
) -> ScaledHamiltonian:
    """Assemble -e^{-2 theta} Lap + v(e^theta x) + gamma w(e^theta x)."""
    if abs(theta.imag) >= pot.strip_bound:
        raise StripViolationError(
            f"|Im theta| = {abs(theta.imag):.6g} >= strip bound {pot.strip_bound:.6g}"
        )
    if gamma != 0.0 and pot.w is None:
        raise ValueError("gamma != 0 requires a perturbation w on the potential")

    diag_v = _dilated(pot.v, grid, theta)
    if gamma != 0.0:
        diag_v = diag_v + gamma * _dilated(pot.w, grid, theta)

    bands = Tridiagonal.laplacian(grid, np.exp(-2.0 * theta), diag_v)
    return ScaledHamiltonian(bands=bands, grid=grid, theta=theta, gamma=gamma, potential=pot)


@dataclass
class SpectrumClassification:
    """Labels of the in-window eigenvalues from their predicted shift under theta -> theta + dtheta."""

    eigenvalues: np.ndarray
    labels: list[str]                 # "bound" | "resonance" | "continuum" | "unlabeled"
    stationarity: np.ndarray          # |dz|, the predicted shift's size
    rotation_residual: np.ndarray     # |z + dz - z e^{-2 dtheta}|, the distance from the rotated prediction

    def with_label(self, label: str) -> np.ndarray:
        return self.eigenvalues[np.array(self.labels, dtype=str) == label]


@one_blas_thread
def _eigenvalues_in_disc(h: ScaledHamiltonian, centre: complex, radius: float) -> np.ndarray:
    """Every eigenvalue of h within `radius` of `centre`.

    H - centre is factored once (_band_lu), and shift-invert Arnoldi (ARPACK
    eigs) on its inverse returns the k largest-magnitude mu, that is the k
    eigenvalues centre + 1/mu nearest the centre.  k starts at ARNOLDI_K0
    and doubles while the farthest of them still lies inside the disc, so
    no eigenvalue in the disc is missed.  Once 2k >= n the dense
    eigenvalues are filtered instead: ARPACK needs k < n - 1, and at that
    size the dense solve is the cheaper one.  Raises ConvergenceError when
    ARPACK fails or exceeds LANCZOS_MAXITER restarts, and SingularShiftError
    when _band_lu finds H - centre singular to working precision.
    """
    n = h.grid.n
    k = ARNOLDI_K0
    if 2 * k < n:
        import scipy.sparse.linalg  # here only: the dense branch and every other path do without it

        op = scipy.sparse.linalg.LinearOperator((n, n), matvec=_band_lu(h.bands, centre), dtype=complex)
        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        while 2 * k < n:
            try:
                mu = scipy.sparse.linalg.eigs(
                    op, k=k, which="LM", v0=v0, tol=LANCZOS_TOL, maxiter=LANCZOS_MAXITER,
                    return_eigenvectors=False,
                )
            except scipy.sparse.linalg.ArpackError as exc:
                raise ConvergenceError(
                    f"Arnoldi for the eigenvalues within {radius:.6g} of {centre:.6g}: {exc}"
                ) from None
            z = centre + 1.0 / mu
            dist = np.abs(z - centre)
            if np.max(dist) > radius:
                return z[dist <= radius]
            k *= 2
    z = h.eigenvalues()
    return z[np.abs(z - centre) <= radius]


@one_blas_thread
def classify_spectrum(
    h1: ScaledHamiltonian, h2: ScaledHamiltonian, window: tuple[float, float, float, float]
) -> SpectrumClassification:
    """Label the eigenvalues of h1 inside `window` as bound / resonance / continuum-string.

    `window` is the open rectangle (re_min, re_max, im_min, im_max); only h1's eigenvalues
    in the disc around it are computed.  h2, the same operator at theta + dtheta, supplies
    the first-order shift dz = psi^T (H2 - H1) psi / psi^T psi of each eigenvalue z, the
    c-product Hellmann-Feynman identity (Moiseyev, Certain & Weinhold, Mol. Phys. 36 (1978)
    1613), with psi from one inverse-iteration solve at z (nudged by POLISH_TOL * max(1, |z|)
    when singular, as in polish_eigenvalue).  dz is compared against staying put (discrete
    spectrum) and rotating to z e^{-2 dtheta} (continuum string).  Discrete points are bound
    states when essentially real and below BOUND_RE_MAX, resonances when Im z < -RES_IM_TOL.
    Points matching neither, or whose unit psi has |psi^T psi| < 1e-13 (dz = inf), are unlabeled.
    """
    if h1.grid != h2.grid or h1.potential != h2.potential or h1.gamma != h2.gamma:
        raise ValueError("classification requires the same grid, potential and gamma")
    dtheta = h2.theta - h1.theta
    if dtheta == 0:
        raise ValueError("the two Hamiltonians must differ in theta")

    re_min, re_max, im_min, im_max = window
    centre = complex(0.5 * (re_min + re_max), 0.5 * (im_min + im_max))
    radius = 0.5 * math.hypot(re_max - re_min, im_max - im_min)
    rot = np.exp(-2.0 * dtheta)
    z1 = _eigenvalues_in_disc(h1, centre, radius)
    z1 = z1[(z1.real > re_min) & (z1.real < re_max) & (z1.imag > im_min) & (z1.imag < im_max)]
    a, b = h1.bands, h2.bands
    delta = Tridiagonal(sub=b.sub - a.sub, main=b.main - a.main, sup=b.sup - a.sup)
    start = np.random.default_rng(1).standard_normal(2 * h1.grid.n).view(complex)
    dz = np.empty(z1.size, dtype=complex)
    for i, z in enumerate(z1):
        try:
            psi = _band_lu(a, z)(start)
        except SingularShiftError:  # z is an eigenvalue to working precision
            psi = _band_lu(a, z + POLISH_TOL * max(1.0, abs(z)))(start)
        psi /= np.linalg.norm(psi)
        norm2 = psi @ psi
        dz[i] = (psi @ delta.matvec(psi)) / norm2 if abs(norm2) >= 1e-13 else math.inf
    stat = np.abs(dz)
    rres = np.abs(z1 + dz - z1 * rot)

    labels: list[str] = []
    for z, d_stat, d_rot in zip(z1, stat, rres):
        if d_stat < STAT_FACTOR * abs(z) * abs(dtheta):
            if z.imag < -RES_IM_TOL:
                labels.append("resonance")
            elif z.real < BOUND_RE_MAX:
                labels.append("bound")
            else:
                labels.append("unlabeled")
        elif d_rot < ROT_FACTOR * abs(z) * abs(rot - 1.0):
            labels.append("continuum")
        else:
            labels.append("unlabeled")

    return SpectrumClassification(eigenvalues=z1, labels=labels, stationarity=stat, rotation_residual=rres)


def ray_distance(z: complex, theta: complex) -> float:
    """Distance from z to the rotated continuum ray {r e^{-2 i Im theta} : r >= 0}.

    The perpendicular-distance formula |z sin(2 Im theta - alpha)| applies
    when the projection of z falls on the ray; otherwise (angular argument
    beyond pi/2) the nearest ray point is the origin and the distance is |z|.
    """
    if z == 0:
        return 0.0
    phi = np.angle(z) + 2.0 * theta.imag
    phi = (phi + math.pi) % (2.0 * math.pi) - math.pi
    if abs(phi) <= 0.5 * math.pi:
        return float(abs(z) * abs(math.sin(phi)))
    return float(abs(z))


@dataclass
class ResolventNorm:
    """Resolvent norm together with the minimizing antilinear eigenvector."""

    norm: float
    vector: np.ndarray
    residual: float


@one_blas_thread
def resolvent_norm_at(h: ScaledHamiltonian, z: complex) -> ResolventNorm:
    """||(H_theta(gamma) - z)^-1|| = 1 / min lambda of the antilinear problem.

    schrodinger.min_lambda gives lambda = sigma_min(X), X = H - z, a unit right
    singular vector x and K = X^-1 o conj; X^* X x = lambda^2 x makes both
    x + lambda K x and i (x - lambda K x) solve X psi = lambda conj(psi), and
    the larger is used (one is 0 when lambda K x = +-x): one solve more than
    the norm.  Raises SingularShiftError when z is numerically an eigenvalue,
    and ConvergenceError when the residual ||(H - z) psi - lambda conj(psi)||
    of the unit psi exceeds RESIDUAL_RTOL * ||H - z|| (<= norm_estimate + |z|).
    """
    lam, x, k = min_lambda(h.bands, z)
    kx = lam * k(x)
    psi = max(x + kx, 1j * (x - kx), key=np.linalg.norm)
    psi /= np.linalg.norm(psi)
    residual = float(np.linalg.norm(h.bands.matvec(psi) - z * psi - lam * np.conj(psi)))
    tol = RESIDUAL_RTOL * (h.norm_estimate + abs(z))
    if residual > tol:
        raise ConvergenceError(
            f"antilinear eigenvector at z = {z:.6g} has residual {residual:.3g} > {tol:.3g}"
        )
    return ResolventNorm(norm=1.0 / lam, vector=_fix_sign(psi), residual=residual)


@dataclass
class FloorReport:
    """Diagnostic count of singular values below the essential-spectrum floor."""

    floor: float
    count_below: int
    below: np.ndarray
    near_floor_count: int


@one_blas_thread
def essential_floor_check(h: ScaledHamiltonian, z: complex) -> FloorReport:
    """Singular values of H - z against the floor d(z, theta).

    On the infinite domain |H_theta(gamma) - z| has essential spectrum
    [d(z, theta), inf); on the grid one expects a finite, grid-stable count
    of singular values below the floor (the discrete part) and an
    accumulating family above it.  Only the singular values up to
    1.1 * floor are computed: the eigenvalues +-sigma_k of the banded
    doubling inside (-1.1 floor, 1.1 floor], of which the upper half are
    the sigma_k.  Taking both signs keeps a sigma_k at rounding level
    counted once even when the two computed values of its pair share a sign.
    """
    floor = ray_distance(z, h.theta)
    tol = FLOOR_RTOL * floor
    cut = 1.1 * floor
    if cut > 0.0:
        pm = scipy.linalg.eig_banded(
            h.bands.doubling(z), eigvals_only=True, select="v", select_range=(-cut, cut)
        )
        sv = np.abs(pm[pm.size // 2:])
    else:
        sv = np.empty(0)
    below = sv[sv < floor - tol]
    near = int(np.sum((sv >= floor - tol) & (sv <= cut)))
    return FloorReport(floor=floor, count_below=int(below.size), below=np.sort(below), near_floor_count=near)


def sigma_min(h: ScaledHamiltonian, z: complex) -> float:
    """Smallest singular value of H - z, which is 1/||(H - z)^-1||.

    The engine of resolvent_norm_at without its singularity threshold, so at
    a polished eigenvalue it reads a rounding-level value instead of raising.
    Raises ConvergenceError when the Lanczos iteration does not converge.
    """
    return _lanczos_pair(h.bands, z)[0]


@one_blas_thread
def polish_eigenvalue(h: ScaledHamiltonian, z0: complex) -> tuple[complex, np.ndarray]:
    """Refine an eigenvalue estimate by bilinear Rayleigh-quotient iteration.

    Inverse iteration with the complex-bilinear quotient z = (psi^T H psi) /
    (psi^T psi) is the Newton-type refinement adapted to complex symmetric
    matrices; each step costs one tridiagonal solve (_band_lu).  Returns
    (eigenvalue, eigenvector).  Raises ConvergenceError when POLISH_MAX_ITER
    steps do not bring the relative eigenvalue change below POLISH_TOL; a
    SingularShiftError ends the iteration early: z is then an eigenvalue,
    and a start vector no step has refined gets one inverse-iteration step
    at z nudged by POLISH_TOL * max(1, |z|).
    """
    n = h.grid.n
    rng = np.random.default_rng(1)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    z = complex(z0)
    for step in range(POLISH_MAX_ITER):
        try:
            w = _band_lu(h.bands, z)(v)
        except SingularShiftError:  # z is an eigenvalue to working precision
            if step == 0:
                v = _band_lu(h.bands, z + POLISH_TOL * max(1.0, abs(z)))(v)
                v /= np.linalg.norm(v)
            return z, v
        w /= np.linalg.norm(w)
        denom = w @ w
        if abs(denom) < 1e-13:
            v = w + 1e-8 * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            continue
        z_new = (w @ h.bands.matvec(w)) / denom
        v = w
        if abs(z_new - z) <= POLISH_TOL * max(1.0, abs(z_new)):
            return complex(z_new), v
        z = complex(z_new)
    raise ConvergenceError(
        f"polish_eigenvalue from z0 = {complex(z0):.6g} not converged in "
        f"{POLISH_MAX_ITER} steps (last iterate {z:.6g})"
    )


@dataclass
class ResonanceResult:
    """Located resonance: polished position and diagnostics."""

    z: complex
    sigma_min: float
    candidates: np.ndarray
    classification: SpectrumClassification | None = None


def locate_resonance(
    pot: DilationPotential,
    grid: Grid1D,
    theta: complex,
    gamma: float = 0.0,
    *,
    dtheta: complex = 0.02j,
    window: tuple[float, float, float, float] | None = None,
    guess: complex | None = None,
) -> ResonanceResult:
    """Find and polish a resonance of H_theta(gamma).

    Without a `guess`, the eigenvalues at theta inside `window` (re_min,
    re_max, im_min, im_max) are classified by their shift under theta + dtheta
    and the resonance-labeled one with the best stationarity is taken; with a
    `guess` the classification solves are skipped and the guess is polished
    directly (used for grid-refinement and theta-stability scans).  Raises
    ValueError when neither is given.
    """
    if guess is not None:
        h1 = build_scaled(pot, grid, theta, gamma)
        z, _ = polish_eigenvalue(h1, guess)
        return ResonanceResult(z=z, sigma_min=sigma_min(h1, z + 0.0), candidates=np.array([z]))

    if window is None:
        raise ValueError("locate_resonance needs a window to classify in or a guess to polish")
    h1 = build_scaled(pot, grid, theta, gamma)
    h2 = build_scaled(pot, grid, theta + dtheta, gamma)
    cls = classify_spectrum(h1, h2, window)
    cand = cls.with_label("resonance")
    if cand.size == 0:
        raise PairingAmbiguityError("no resonance-labeled eigenvalue in the window")
    scores = [cls.stationarity[np.argmin(np.abs(cls.eigenvalues - c))] / max(abs(c), 1e-30) for c in cand]
    best = complex(cand[int(np.argmin(scores))])
    z, _ = polish_eigenvalue(h1, best)
    return ResonanceResult(z=z, sigma_min=sigma_min(h1, z), candidates=cand, classification=cls)


@dataclass
class RelativeBound:
    """Constants (a, b) with ||w_theta psi|| <= a ||Lap psi|| + b ||psi||.

    perturbation_scan uses the exact multiplication-operator pair
    (0, sup|w_theta|): its bound_estimate is b ||(H_theta - z)^-1|| =
    sup|w_theta| * ||(H_theta - z)^-1||.
    """

    a: float
    b: float


def _w_diagonal(pot: DilationPotential, grid: Grid1D, theta: complex) -> np.ndarray:
    if pot.w is None:
        raise ValueError("potential has no perturbation w")
    return _dilated(pot.w, grid, theta)


def exact_relative_bound(pot: DilationPotential, grid: Grid1D, theta: complex) -> RelativeBound:
    """The provably valid pair for a bounded multiplication perturbation:
    a = 0 and b = sup|w_theta| on the grid."""
    w_diag = _w_diagonal(pot, grid, theta)
    return RelativeBound(a=0.0, b=float(np.max(np.abs(w_diag))))


# the active-set cases of Lawson & Hanson, Solving Least Squares Problems
# (1974), ch. 23, enumerated for two columns
def _nnls2(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """NNLS argmin_{c >= 0} ||design c - target|| for two nonzero columns: the
    unconstrained fit if c >= 0, else the better one-column fit clamped at 0."""
    coef = np.linalg.lstsq(design, target, rcond=None)[0]
    if np.any(coef < 0.0):
        fits = np.diag(np.maximum(design.T @ target, 0.0) / np.sum(design**2, axis=0))
        coef = min(fits, key=lambda c: np.linalg.norm(design @ c - target))
    return coef


@one_blas_thread
def fit_relative_bound(pot: DilationPotential, grid: Grid1D, theta: complex) -> RelativeBound:
    """Least-squares relative-bound constants over a sample of states.

    Fits ||w_theta psi|| against a ||Lap psi|| + b ||psi|| over FIT_SAMPLES
    smoothed random vectors plus localized bumps (which probe the sup of
    |w_theta|) by closed-form NNLS (_nnls2), then inflates the pair so every
    sampled constraint holds.  Sampled
    constants certify nothing beyond the sample family, so scans use
    :func:`exact_relative_bound` instead.
    """
    w_diag = _w_diagonal(pot, grid, theta)
    b_sup = float(np.max(np.abs(w_diag)))
    x = grid.points

    rng = np.random.default_rng(FIT_SEED)
    samples = []
    for _ in range(FIT_SAMPLES):
        psi = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        for _ in range(int(rng.integers(0, 4))):
            psi = 0.5 * psi + 0.25 * (np.roll(psi, 1) + np.roll(psi, -1))
        samples.append(psi)
    # bumps centered on the |w| maximum with a range of widths
    x_star = x[int(np.argmax(np.abs(w_diag)))]
    for width in (0.5, 1.0, 2.0, 4.0):
        samples.append(np.exp(-((x - x_star) / width) ** 2).astype(complex))

    lap = Tridiagonal.laplacian(grid)
    design = np.asarray([[np.linalg.norm(lap.matvec(p)), np.linalg.norm(p)] for p in samples])
    target = np.asarray([np.linalg.norm(w_diag * p) for p in samples])
    coef = _nnls2(design, target)
    pred = design @ coef
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(pred > 0, target / pred, np.inf)
    inflate = float(np.max(ratio))
    a_fit, b_fit = float(coef[0]) * inflate, float(coef[1]) * inflate
    if not np.isfinite(inflate) or a_fit >= 1.0 or (a_fit == 0.0 and b_fit > b_sup):
        return RelativeBound(a=0.0, b=b_sup)
    return RelativeBound(a=a_fit, b=b_fit)


@dataclass
class PerturbationScan:
    """Rows (gamma, z_res(gamma), resolvent norm at probe, bound estimate)."""

    gammas: np.ndarray
    z_res: np.ndarray
    norms: np.ndarray
    bound_estimates: np.ndarray
    rel_bound: RelativeBound


def perturbation_scan(
    pot: DilationPotential,
    grid: Grid1D,
    theta: complex,
    gamma_values,
    z_probe: complex,
    z_start: complex,
) -> PerturbationScan:
    """Track the resonance and the resolvent norm under gamma w perturbations.

    The resonance is polished at every gamma, from the caller's located
    resonance `z_start` at the first gamma and from the previous one after
    that.  bound_estimate = sup|w_theta| * ||(H_theta - z)^-1|| bounds
    ||w_theta (H_theta - z)^-1|| through the exact multiplication-operator
    pair (a, b) = (0, sup|w_theta|); it uses the unperturbed resolvent, so the
    column is constant, and a gamma of 0 reuses that norm.  Norms come from
    schrodinger.min_lambda, so a z_probe that is numerically an eigenvalue
    raises SingularShiftError.
    """
    if pot.w is None:
        raise ValueError("perturbation scan requires a potential with w")
    rel_bound = exact_relative_bound(pot, grid, theta)

    gammas = np.asarray(list(gamma_values), dtype=float)
    h0 = build_scaled(pot, grid, theta, 0.0)
    base_norm = 1.0 / min_lambda(h0.bands, z_probe)[0]
    bound = rel_bound.b * base_norm

    z_res = np.empty(gammas.size, dtype=complex)
    norms = np.empty(gammas.size)
    z = complex(z_start)
    for i, g in enumerate(gammas):
        h = build_scaled(pot, grid, theta, g)
        z, _ = polish_eigenvalue(h, z)
        z_res[i] = z
        norms[i] = base_norm if g == 0.0 else 1.0 / min_lambda(h.bands, z_probe)[0]
    return PerturbationScan(
        gammas=gammas,
        z_res=z_res,
        norms=norms,
        bound_estimates=np.full(gammas.size, bound),
        rel_bound=rel_bound,
    )
