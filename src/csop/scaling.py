"""Complex-scaled 1D Hamiltonians and resonance machinery.

H_theta(gamma) = -e^{-2 theta} Lap + v(e^theta x) + gamma w(e^theta x) on a
Dirichlet grid over [0, L] is complex symmetric by construction, so its
resolvent norm is available through the antilinear eigenvalue problem with
plain entrywise conjugation.  Rotating theta moves the discretized
continuum string by -2 Im theta while discrete points (bound states and
uncovered resonances) stay put; classification compares each eigenvalue
against both predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.optimize

from .antilinear import ABS_FLOOR, SINGULAR_RTOL, antilinear_spectrum
from .errors import (
    ConvergenceError,
    PairingAmbiguityError,
    SingularShiftError,
    StripViolationError,
)
from .schrodinger import Grid1D, Tridiagonal

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
    "ray_distance_raw",
    "resolvent_norm_at",
    "essential_floor_check",
    "locate_resonance",
    "polish_eigenvalue",
    "sigma_min",
    "exact_relative_bound",
    "fit_relative_bound",
    "perturbation_scan",
]

SIGMA_MIN_ITERS = 200      # power steps before sigma_min gives up
SIGMA_MIN_RTOL = 1e-12     # relative change of the power estimate that counts as converged
SIGMA_MIN_SEED = 0         # seed of the random start vector
POLISH_TOL = 1e-10         # relative eigenvalue change that stops polish_eigenvalue
POLISH_MAX_ITER = 50       # Rayleigh-quotient steps before polish_eigenvalue stops


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
        def shape(a):
            return lambda x: a * x * x * np.exp(-x)

        w = shape(perturbation_alpha) if perturbation_alpha is not None else None
        return cls(v=shape(alpha), strip_bound=0.5 * math.pi, w=w)

    @classmethod
    def from_callable(cls, v, strip_bound: float, w=None) -> "DilationPotential":
        """Sampled analytic-continuation callable; the caller vouches for
        dilation analyticity inside the given strip."""
        return cls(v=v, strip_bound=strip_bound, w=w)


@dataclass
class ScaledHamiltonian:
    """Discretized H_theta(gamma); symmetric bands, so the matrix equals its transpose bitwise."""

    bands: Tridiagonal
    grid: Grid1D
    theta: complex
    gamma: float
    potential: DilationPotential
    _eigvals: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def matrix(self) -> np.ndarray:
        return self.bands.dense()

    def eigenvalues(self) -> np.ndarray:
        if self._eigvals is None:
            self._eigvals = np.linalg.eigvals(self.matrix)
        return self._eigvals

    @property
    def norm_estimate(self) -> float:
        """Cheap upper bound on the spectral norm (max row sum)."""
        row = np.abs(self.bands.main)
        row[:-1] += np.abs(self.bands.sup)
        row[1:] += np.abs(self.bands.sub)
        return float(np.max(row))


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

    zx = np.exp(theta) * grid.points.astype(complex)
    diag_v = np.asarray(pot.v(zx), dtype=complex)
    if gamma != 0.0:
        diag_v = diag_v + gamma * np.asarray(pot.w(zx), dtype=complex)

    bands = Tridiagonal.laplacian(grid, np.exp(-2.0 * theta), diag_v)
    return ScaledHamiltonian(bands=bands, grid=grid, theta=theta, gamma=gamma, potential=pot)


@dataclass
class SpectrumClassification:
    """Per-eigenvalue labels from the theta -> theta + dtheta comparison."""

    eigenvalues: np.ndarray
    labels: list[str]                 # "bound" | "resonance" | "continuum" | "unlabeled"
    stationarity: np.ndarray          # distance to the nearest unmoved eigenvalue
    rotation_residual: np.ndarray     # distance to the nearest rotated prediction
    dtheta: complex

    def with_label(self, label: str) -> np.ndarray:
        mask = np.array([lab == label for lab in self.labels])
        return self.eigenvalues[mask]


def classify_spectrum(
    h1: ScaledHamiltonian,
    h2: ScaledHamiltonian,
    *,
    stat_factor: float = 0.1,
    rot_factor: float = 0.3,
    res_im_tol: float = 1e-3,
    bound_re_max: float = 0.0,
) -> SpectrumClassification:
    """Label eigenvalues of h1 as bound / resonance / continuum-string.

    For each eigenvalue z the displacement to the nearest eigenvalue of h2
    is compared against two predictions: staying put (discrete spectrum) or
    rotating to z e^{-2 dtheta} (continuum string).  Discrete points are
    bound states when essentially real and below the continuum threshold,
    resonances when Im z < -res_im_tol.  Points matching neither prediction
    are reported as unlabeled.
    """
    if h1.grid != h2.grid or h1.gamma != h2.gamma:
        raise ValueError("classification requires the same grid, potential and gamma")
    dtheta = h2.theta - h1.theta
    if dtheta == 0:
        raise ValueError("the two Hamiltonians must differ in theta")

    z1 = h1.eigenvalues()
    z2 = h2.eigenvalues()
    rot = np.exp(-2.0 * dtheta)

    labels: list[str] = []
    stat = np.empty(z1.size)
    rres = np.empty(z1.size)
    claimed: dict[int, complex] = {}
    for i, z in enumerate(z1):
        d_all = np.abs(z2 - z)
        j = int(np.argmin(d_all))
        d_stat = float(d_all[j])
        d_rot = float(np.min(np.abs(z2 - z * rot)))
        stat[i] = d_stat
        rres[i] = d_rot
        move_scale = abs(z) * abs(rot - 1.0)
        if d_stat < stat_factor * abs(z) * abs(dtheta):
            if z.imag < -res_im_tol:
                labels.append("resonance")
            elif z.real < bound_re_max:
                labels.append("bound")
            else:
                labels.append("unlabeled")
            if labels[-1] != "unlabeled":
                if j in claimed and abs(claimed[j] - z) > stat_factor * abs(z) * abs(dtheta):
                    raise PairingAmbiguityError(
                        f"eigenvalues {claimed[j]:.6g} and {z:.6g} both pair with "
                        f"the same partner {z2[j]:.6g}"
                    )
                claimed[j] = z
        elif d_rot < rot_factor * move_scale:
            labels.append("continuum")
        else:
            labels.append("unlabeled")

    return SpectrumClassification(
        eigenvalues=z1, labels=labels, stationarity=stat, rotation_residual=rres, dtheta=dtheta
    )


def ray_distance_raw(z: complex, theta: complex) -> float:
    """Unclamped |z sin(2 Im theta - alpha)| with z = |z| e^{-i alpha}."""
    if z == 0:
        return 0.0
    alpha = -np.angle(z)
    return float(abs(z) * abs(math.sin(2.0 * theta.imag - alpha)))


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
    min_lambda: float
    vector: np.ndarray
    residual: float


def resolvent_norm_at(h: ScaledHamiltonian, z: complex) -> ResolventNorm:
    """||(H_theta(gamma) - z)^-1|| = 1 / min lambda of the antilinear problem.

    Delegates to the antilinear solver with entrywise conjugation (the
    matrix is complex symmetric) and reports the minimizing vector psi and
    its residual ||(H - z) psi - lambda conj(psi)||.
    """
    spec = antilinear_spectrum(h.matrix, None, z)
    lam = float(spec.lambdas[0])
    if lam < max(SINGULAR_RTOL * spec.matrix_norm, ABS_FLOOR):
        raise SingularShiftError(f"z = {z:.6g} is numerically an eigenvalue")
    psi = spec.vectors[:, 0]
    residual = float(np.linalg.norm(h.bands.matvec(psi) - z * psi - lam * np.conj(psi)))
    return ResolventNorm(norm=1.0 / lam, min_lambda=lam, vector=psi, residual=residual)


@dataclass
class FloorReport:
    """Diagnostic count of singular values below the essential-spectrum floor."""

    floor: float
    raw_floor: float
    tol: float
    count_below: int
    below: np.ndarray
    near_floor_count: int
    n_total: int


def essential_floor_check(
    h: ScaledHamiltonian, z: complex, *, tol_rel: float = 0.02
) -> FloorReport:
    """Singular values of H - z against the floor d(z, theta).

    On the infinite domain |H_theta(gamma) - z| has essential spectrum
    [d(z, theta), inf); on the grid one expects a finite, grid-stable count
    of singular values below the floor (the discrete part) and an
    accumulating family above it.
    """
    sv = np.linalg.svd(h.bands.dense(z), compute_uv=False)
    floor = ray_distance(z, h.theta)
    tol = tol_rel * floor
    below = sv[sv < floor - tol]
    near = int(np.sum((sv >= floor - tol) & (sv <= floor * 1.1)))
    return FloorReport(
        floor=floor,
        raw_floor=ray_distance_raw(z, h.theta),
        tol=tol,
        count_below=int(below.size),
        below=np.sort(below),
        near_floor_count=near,
        n_total=int(sv.size),
    )


def sigma_min(h: ScaledHamiltonian, z: complex) -> float:
    """Smallest singular value of H - z via banded inverse-power iteration.

    Runs the power method on (H-z)^-1 (H-z)^-dagger with O(n) solves per
    step; equals 1/||(H-z)^-1||, which the antilinear machinery certifies
    independently.  H is complex symmetric, so (H-z)^dagger is the entrywise
    conjugate of H - z.  Raises ConvergenceError when SIGMA_MIN_ITERS steps
    do not bring the relative change of the estimate below SIGMA_MIN_RTOL.
    """
    ab = h.bands.banded(z)
    abh = np.conj(ab)
    rng = np.random.default_rng(SIGMA_MIN_SEED)
    v = rng.standard_normal(h.grid.n) + 1j * rng.standard_normal(h.grid.n)
    v /= np.linalg.norm(v)
    rho_old = 0.0
    for _ in range(SIGMA_MIN_ITERS):
        y = scipy.linalg.solve_banded((1, 1), abh, v)
        w = scipy.linalg.solve_banded((1, 1), ab, y)
        rho = float(np.linalg.norm(w))
        v = w / rho
        if abs(rho - rho_old) <= SIGMA_MIN_RTOL * rho:
            return 1.0 / math.sqrt(rho)
        rho_old = rho
    raise ConvergenceError(
        f"sigma_min at z = {z:.6g} not converged in {SIGMA_MIN_ITERS} steps "
        f"(relative change {abs(rho - rho_old) / rho:.3g} > {SIGMA_MIN_RTOL:g})"
    )


def polish_eigenvalue(h: ScaledHamiltonian, z0: complex) -> tuple[complex, np.ndarray]:
    """Refine an eigenvalue estimate by bilinear Rayleigh-quotient iteration.

    Inverse iteration with the complex-bilinear quotient z = (psi^T H psi) /
    (psi^T psi) is the Newton-type refinement adapted to complex symmetric
    matrices; each step costs one banded solve.  Returns (eigenvalue,
    eigenvector).
    """
    n = h.grid.n
    rng = np.random.default_rng(1)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    z = complex(z0)
    for _ in range(POLISH_MAX_ITER):
        try:
            w = scipy.linalg.solve_banded((1, 1), h.bands.banded(z), v)
        except np.linalg.LinAlgError:
            break  # z is an exact eigenvalue of the factorization
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
    return z, v


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
    res_im_tol: float = 1e-3,
    guess: complex | None = None,
) -> ResonanceResult:
    """Find and polish a resonance of H_theta(gamma).

    Without a `guess`, eigenvalues at theta and theta + dtheta are
    classified and the resonance-labeled point inside `window`
    (re_min, re_max, im_min, im_max) with the best stationarity is taken;
    with a `guess` the classification solves are skipped and the guess is
    polished directly (used for grid-refinement and theta-stability scans).
    """
    if guess is not None:
        h1 = build_scaled(pot, grid, theta, gamma)
        z, _ = polish_eigenvalue(h1, guess)
        return ResonanceResult(z=z, sigma_min=sigma_min(h1, z + 0.0), candidates=np.array([z]))

    h1 = build_scaled(pot, grid, theta, gamma)
    h2 = build_scaled(pot, grid, theta + dtheta, gamma)
    cls = classify_spectrum(h1, h2, res_im_tol=res_im_tol)
    cand = cls.with_label("resonance")
    if window is not None:
        re_min, re_max, im_min, im_max = window
        keep = (
            (cand.real > re_min) & (cand.real < re_max)
            & (cand.imag > im_min) & (cand.imag < im_max)
        )
        cand = cand[keep]
    if cand.size == 0:
        raise PairingAmbiguityError("no resonance-labeled eigenvalue in the window")
    scores = [cls.stationarity[np.argmin(np.abs(cls.eigenvalues - c))] / max(abs(c), 1e-30) for c in cand]
    best = complex(cand[int(np.argmin(scores))])
    z, _ = polish_eigenvalue(h1, best)
    return ResonanceResult(z=z, sigma_min=sigma_min(h1, z), candidates=cand, classification=cls)


@dataclass
class RelativeBound:
    """Constants (a, b) with ||w_theta psi|| <= a ||Lap psi|| + b ||psi||.

    `fitted` distinguishes least-squares sampled constants from the exact
    multiplication-operator pair (0, sup|w_theta|).
    """

    a: float
    b: float
    fitted: bool


def _w_diagonal(pot: DilationPotential, grid: Grid1D, theta: complex) -> np.ndarray:
    if pot.w is None:
        raise ValueError("potential has no perturbation w")
    zx = np.exp(theta) * grid.points.astype(complex)
    return np.asarray(pot.w(zx), dtype=complex)


def exact_relative_bound(pot: DilationPotential, grid: Grid1D, theta: complex) -> RelativeBound:
    """The provably valid pair for a bounded multiplication perturbation:
    a = 0 and b = sup|w_theta| on the grid."""
    w_diag = _w_diagonal(pot, grid, theta)
    return RelativeBound(a=0.0, b=float(np.max(np.abs(w_diag))), fitted=False)


def fit_relative_bound(
    pot: DilationPotential, grid: Grid1D, theta: complex, *, n_samples: int = 64, seed: int = 0
) -> RelativeBound:
    """Least-squares relative-bound constants over a sample of states.

    Fits ||w_theta psi|| against a ||Lap psi|| + b ||psi|| over smoothed
    random vectors plus localized bumps (which probe the sup of |w_theta|),
    then inflates the pair so every sampled constraint holds.  Sampled
    constants are diagnostics recorded in scan metadata; they certify
    nothing beyond the sample family, so scans default to
    :func:`exact_relative_bound` instead.
    """
    w_diag = _w_diagonal(pot, grid, theta)
    b_sup = float(np.max(np.abs(w_diag)))
    x = grid.points

    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_samples):
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
    coef, _ = scipy.optimize.nnls(design, target)
    pred = design @ coef
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(pred > 0, target / pred, np.inf)
    inflate = float(np.max(ratio))
    a_fit, b_fit = float(coef[0]) * inflate, float(coef[1]) * inflate
    if not np.isfinite(inflate) or a_fit >= 1.0 or (a_fit == 0.0 and b_fit > b_sup):
        return RelativeBound(a=0.0, b=b_sup, fitted=False)
    return RelativeBound(a=a_fit, b=b_fit, fitted=True)


@dataclass
class PerturbationScan:
    """Rows (gamma, z_res(gamma), resolvent norm at probe, bound estimate)."""

    gammas: np.ndarray
    z_res: np.ndarray
    norms: np.ndarray
    bound_estimates: np.ndarray
    rel_bound: RelativeBound
    z_probe: complex


def perturbation_scan(
    pot: DilationPotential,
    grid: Grid1D,
    theta: complex,
    gamma_values,
    z_probe: complex,
    *,
    rel_bound: RelativeBound | None = None,
    dtheta: complex = 0.02j,
    window: tuple[float, float, float, float] | None = None,
) -> PerturbationScan:
    """Track the resonance and the resolvent norm under gamma w perturbations.

    The resonance is located by classification at the first gamma and
    tracked by polishing afterwards.  bound_estimate is the closed-form
    a/(1-a) + (b + a |z|)/(1-a) ||(H_theta - z)^-1|| controlling
    ||w_theta (H_theta - z)^-1|| for the configured relative bound (a, b);
    it uses the unperturbed resolvent, so the column is constant.  The
    default (a, b) is the exact multiplication-operator pair; pass a fitted
    one explicitly to use sampled constants.
    """
    if pot.w is None:
        raise ValueError("perturbation scan requires a potential with w")
    if rel_bound is None:
        rel_bound = exact_relative_bound(pot, grid, theta)

    gammas = np.asarray(list(gamma_values), dtype=float)
    h0 = build_scaled(pot, grid, theta, 0.0)
    base_norm = 1.0 / sigma_min(h0, z_probe)
    a, b = rel_bound.a, rel_bound.b
    bound = a / (1.0 - a) + (b + a * abs(z_probe)) / (1.0 - a) * base_norm

    z_res = np.empty(gammas.size, dtype=complex)
    norms = np.empty(gammas.size)
    z_prev = None
    for i, g in enumerate(gammas):
        if z_prev is None:
            res = locate_resonance(pot, grid, theta, g, dtheta=dtheta, window=window)
            z_prev = res.z
        else:
            res = locate_resonance(pot, grid, theta, g, guess=z_prev)
            z_prev = res.z
        z_res[i] = res.z
        h = build_scaled(pot, grid, theta, g)
        norms[i] = 1.0 / sigma_min(h, z_probe)
    return PerturbationScan(
        gammas=gammas,
        z_res=z_res,
        norms=norms,
        bound_estimates=np.full(gammas.size, bound),
        rel_bound=rel_bound,
        z_probe=z_probe,
    )
