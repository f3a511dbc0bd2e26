"""Antilinear eigenvalue problems for dense complex symmetric matrices.

A complex symmetric matrix A (A == A.T, plain transpose) together with a
conjugation C x = P @ conj(x) defines the antilinear problem

    (A - z) u = lam * C u,   lam >= 0.

Every spectrum solver here reduces it to one real symmetric eigenproblem of
twice the size: writing u = x + i y and A = B + i C', the problem is equivalent to
S w = lam w with w = (x, y) and S = [[B, -C'], [-C', -B]].  The positive
eigenvalues of S are the singular values of A, and the eigenvectors give
phase-correct antilinear eigenvectors u = x + i y, orthonormal as they come
except in the kernel, where one SVD orthonormalises.  Full spectra (and the
Takagi factorization) come from divide-and-conquer eigh on S in place, whose
top eigenvalue ||A - z|| (||A|| at z = 0) scales the cluster tolerance, so no
SVD of A runs.  The one exception is a reduced A' = [[0, X^T], [X, 0]] with both diagonal
blocks exactly zero, which block_embed gives at every z: _reduced hands on the n x n X alone,
gathered blockwise through a permutation P's rows without forming A', and its one SVD, in place,
replaces eigh on the 4n doubling (Jordan-Wielandt: each singular value twice; _antilinear_bipartite).
The exact ||A||, the top of scipy.linalg.svdvals(A), is computed only for the asymmetry and
singular-shift thresholds.  The resolvent norm needs no doubling: T^* T = (C T)^2 for a C-symmetric
T (Garcia & Putinar 2006), so K = A'^-1 o conj squares to the positive (A'^* A')^-1, whose top
eigenvalue is 1 / sigma_min^2.  _lanczos, the thick-restart Lanczos of schrodinger's banded norms too
(at most NCV basis vectors; after every step ARPACK's vector test, and for callers that need only
sigma a value test that stops sooner and is as accurate outside a cluster), finds it on one dense
LU (_dense_lu) of A' or, when A' is bipartite, of X alone, solved with and without transpose by two
?trsv each.  A step costs its two solves plus four ?gemv (two classical Gram-Schmidt passes) and
one small ?stev.
A permutation P is applied as a row gather (the block swap stores its rows alone, not P).
Every dense input, a ComplexSymmetricMatrix (always symmetric) or a plain
array, passes one gate, _as_matrix: n x n, n >= 1, finite, else ValueError;
a shift z that is not finite raises PreconditionError (_reduced).  Every
solve, dense here and banded in schrodinger._band_lu, passes one bound,
_check_solve: an entry not below SOLVE_MAX means the shift is singular (a
vector with sum |x_i|^2 below SOLVE_MAX^2 / 4 passes on one dot product).
Every dense LAPACK call is SciPy's, and the public solvers run on one OpenBLAS
thread (_blas.one_blas_thread); a user-set OPENBLAS_NUM_THREADS wins.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._blas import one_blas_thread
from .errors import (
    ConvergenceError,
    DegenerateClusterWarning,
    IndexOutOfRangeError,
    NotCSymmetricError,
    PreconditionError,
    SingularShiftError,
)

__all__ = [
    "ComplexSymmetricMatrix",
    "Conjugation",
    "AntilinearSpectrum",
    "TakagiFactorization",
    "real_doubling",
    "antilinear_spectrum",
    "takagi",
    "resolvent_norm",
    "block_embed",
    "minmax_norm",
    "minmax_even_lower_check",
]

ABS_FLOOR = 1e-14        # absolute floor under all norm-relative thresholds
SYMMETRY_RTOL = 1e-10    # allowed asymmetry of conj(P) @ (A - z I), rel. to ||A||
CLUSTER_RTOL = 1e-10     # singular values closer than this (rel.) form a cluster
RANK_TOL = 1e-4          # kernel singular values above this count toward the zero cluster's rank
SINGULAR_RTOL = 1e-13    # smallest lambda below this (rel.) means z is in the spectrum
LANCZOS_TOL = 1e-14      # relative Ritz residual at which shift-invert Lanczos stops
LANCZOS_VALUE_TOL = float(np.finfo(float).eps)  # Kato-Temple relative error of the value test
LANCZOS_MAXITER = 100    # restarts before shift-invert Lanczos gives up
NCV = 20                 # Lanczos basis vectors held at once (ARPACK's ncv for one eigenpair)
WARM_BLEND = 1e-2        # weight of the seeded start added to a warm start, so that it reaches every direction
_RESTART_COLUMNS = 4096  # columns of the basis turned into Ritz vectors at once
SOLVE_MAX = np.finfo(float).tiny ** -0.5  # larger solves: sigma_min^2 overflows, shift singular


class ComplexSymmetricMatrix:
    """Dense complex symmetric matrix (A + A^T) / 2 of an input that passes _as_matrix."""

    def __init__(self, entries):
        a = _as_matrix(entries)
        self.matrix = 0.5 * (a + a.T)
        self.n = a.shape[0]

    @property
    @one_blas_thread
    def norm(self) -> float:
        """Spectral norm (largest singular value)."""
        return float(scipy.linalg.svdvals(self.matrix)[0])

    def __repr__(self):
        return f"ComplexSymmetricMatrix(n={self.n})"


class Conjugation:
    """Antilinear involution x -> P @ conj(x) with P symmetric unitary.

    Every conjugation on a finite-dimensional space has this form; the
    default P = I is plain entrywise conjugation.  A 0/1 P with one nonzero
    per row, P[i, rows[i]] = 1, is recorded as ``rows`` (else None): it is
    unitary, symmetric iff rows[rows] == arange(n), and applied as x[rows].
    """

    _TOL = 1e-12

    def __init__(self, p):
        p = np.array(p, dtype=complex)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {p.shape}")
        n = p.shape[0]
        self.p, self.n, self.rows = p, n, None
        if np.count_nonzero(p) == n:
            nonzero = np.flatnonzero(p)
            if np.array_equal(nonzero // n, np.arange(n)) and np.all(p.flat[nonzero] == 1):
                self.rows = nonzero % n
        symmetric = (np.array_equal(self.rows[self.rows], np.arange(n)) if self.rows is not None
                     else not np.max(np.abs(p - p.T)) > self._TOL)
        if not symmetric:
            raise ValueError("conjugation matrix P must be symmetric (within 1e-12)")
        if self.rows is None and np.max(np.abs(p @ p.conj().T - np.eye(n))) > self._TOL:
            raise ValueError("conjugation matrix P must be unitary (within 1e-12)")

    @classmethod
    def swap(cls, n: int) -> "Conjugation":
        """Block swap [[0, I], [I, 0]] on C^(2n), used by the block embedding; O(n) until .p is read."""
        conj = cls.__new__(cls)
        conj.n, conj.rows = 2 * n, np.roll(np.arange(2 * n), n)
        return conj

    @functools.cached_property
    def p(self) -> np.ndarray:
        return np.eye(self.n, dtype=complex)[self.rows]

    def apply(self, x) -> np.ndarray:
        x = np.conj(np.asarray(x, dtype=complex))
        return x[self.rows] if self.rows is not None else self.p @ x

    def __repr__(self):
        return f"Conjugation(n={self.n})"


@dataclass
class AntilinearSpectrum:
    """Solutions of (A - z) u_k = lambdas[k] * P conj(u_k).

    lambdas are ascending and nonnegative; column k of ``vectors`` is the
    unit-norm eigenvector paired with lambdas[k] and the columns are
    orthonormal.  The largest lambda is ||A - z||, and ||A|| at z = 0
    (conj(P) is unitary).  ``degenerate`` flags singular values within
    CLUSTER_RTOL * ||A - z|| of each other; a cluster's columns are then one
    orthonormal basis of many.
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    degenerate: bool = False


@dataclass
class TakagiFactorization:
    """A = u @ diag(sigma) @ u.T with u unitary and sigma descending."""

    u: np.ndarray
    sigma: np.ndarray


def _as_matrix(a) -> np.ndarray:
    """The complex n x n array (n >= 1, finite) of a dense input, else ValueError naming the defect."""
    if isinstance(a, ComplexSymmetricMatrix):
        return a.matrix
    mat = np.asarray(a, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.size == 0:
        raise ValueError("empty matrix: need n >= 1")
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    return mat


def real_doubling(a) -> np.ndarray:
    """Real symmetric 2n x 2n doubling of a complex symmetric matrix.

    For A = B + i C' the matrix S = [[B, -C'], [-C', -B]] satisfies
    A (x + i y) = lam * conj(x + i y)  iff  S (x, y) = lam (x, y), and its
    spectrum is exactly {+-sigma_k(A)}.
    """
    mat = _as_matrix(a)
    minus_c = -mat.imag
    return np.block([[mat.real, minus_c], [minus_c, -mat.real]])


def _fix_sign(u: np.ndarray) -> np.ndarray:
    """Deterministic sign for antilinear eigenvectors: u, a vector or columns, negated in place.

    Only +-1 preserve the antilinear eigen-equation, so each column is
    negated where needed such that its largest-magnitude entry has
    nonnegative real part (nonnegative imaginary part breaking ties when the
    real part vanishes).
    """
    # |u| of about sqrt(k) of the k columns at a time, never of all of them
    blocks = np.array_split(u.reshape(u.shape[0], -1), math.isqrt(u.size // u.shape[0]), axis=1)
    z = np.concatenate([b[np.argmax(np.abs(b), axis=0), np.arange(b.shape[1])] for b in blocks])
    m = np.abs(z)
    flip = (z.real < -1e-12 * m) | ((np.abs(z.real) <= 1e-12 * m) & (z.imag < 0.0))
    return np.negative(u, out=u, where=flip)


def _antilinear_plain(s: np.ndarray):
    """Solve A u = lam conj(u) for plain complex symmetric A from s = real_doubling(A), overwritten.

    Singular values within CLUSTER_RTOL * ||A|| (the largest lambda) of each
    other form a cluster.  Returns (lambdas ascending, vectors as columns,
    degenerate flag).  Raises LinAlgError when the zero cluster's kernel has
    too low a rank.
    """
    n = s.shape[0] // 2
    # s is symmetric, so s.T is a Fortran-ordered view that eigh overwrites
    # instead of copying; divide-and-conquer deflates the clustered spectra
    evals, evecs = scipy.linalg.eigh(s.T, driver="evd", overwrite_a=True)

    # the top n eigenvalues of S are the singular values of A.  For lam_j,
    # lam_k > 0 the u = x + i y are already orthonormal, clusters included:
    # Re<u_j, u_k> = w_j . w_k, and Im<u_j, u_k> = -w_j . J w_k = 0, since
    # J (x, y) = (-y, x) maps the +lam_k eigenvector to the -lam_k eigenspace
    lam = evals[n:]
    vectors = evecs[:n, n:] + 1j * evecs[n:, n:]
    ctol = max(CLUSTER_RTOL * lam[-1], ABS_FLOOR)
    split = np.flatnonzero(np.diff(lam) > ctol)
    degenerate = split.size < n - 1

    if lam[0] <= ctol:
        # zero cluster of m: u and i u both lie in the kernel of S, which has
        # twice its complex dimension; one SVD picks m orthonormal directions
        m = split[0] + 1 if split.size else n
        kern = evecs[:, np.abs(evals) <= max(ctol, lam[m - 1] + ctol)]
        basis, sv, _ = scipy.linalg.svd(kern[:n] + 1j * kern[n:], full_matrices=False, check_finite=False)
        if np.count_nonzero(sv > RANK_TOL) < m:
            raise np.linalg.LinAlgError(
                "rank-deficient degenerate cluster: could not extract an orthonormal basis"
            )
        vectors[:, :m] = basis[:, :m]
    return np.maximum(lam, 0.0), _fix_sign(vectors), degenerate


def _antilinear_bipartite(u: np.ndarray, sigma: np.ndarray, vh: np.ndarray):
    """(lambdas ascending, vectors, True) of A' w = lam conj(w) for A' = [[0, X^T], [X, 0]], from X's SVD.

    X v_k = sigma_k u_k gives X^T conj(u_k) = sigma_k conj(v_k), so the orthonormal (v_k, conj u_k) / sqrt2
    and i (v_k, -conj u_k) / sqrt2 both solve it with lam = sigma_k: every value is doubled, hence degenerate.
    """
    n = u.shape[0]
    vectors = np.empty((2 * n, 2 * n), dtype=complex)
    v, cu = vectors[:n, 0::2], vectors[n:, 0::2]
    np.conj(vh[::-1].T, out=v)  # columns in ascending sigma
    np.conj(u[:, ::-1], out=cu)
    np.multiply(v, 1j, out=vectors[:n, 1::2])
    np.multiply(cu, -1j, out=vectors[n:, 1::2])
    vectors *= 0.5 ** 0.5
    return np.repeat(sigma[::-1], 2), _fix_sign(vectors), True


def _symmetrized(lower: np.ndarray, upper_t: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """lower if it equals upper_t (A' below and above the diagonal) exactly, else 0.5 * (lower + upper_t).

    NotCSymmetricError, an inconsistent (matrix, conjugation) pair, past max(SYMMETRY_RTOL * ||A||, ABS_FLOOR).
    """
    if np.array_equal(lower, upper_t):
        return lower
    asym = float(np.max(np.abs(lower - upper_t)))
    if asym > ABS_FLOOR and asym > SYMMETRY_RTOL * (scale := float(scipy.linalg.svdvals(mat)[0])):
        raise NotCSymmetricError(f"conj(P) @ (A - z I) deviates from symmetry by {asym:.3e} "
                                 f"(> {SYMMETRY_RTOL:g} * ||A|| = {SYMMETRY_RTOL * scale:.3e})")
    return 0.5 * (lower + upper_t)


def _reduced(a, conj: Conjugation | None, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """(A, A' = conj(P) @ (A - z I) made exactly symmetric), the plain problem behind (A, P, z).

    P symmetric unitary implies P^-1 = conj(P), so (A - z) u = lam P conj(u)
    is A' u = lam conj(u); for a permutation P (or none) A' = (A - z I)[rows].
    A bipartite A' = [[0, X^T], [X, 0]] (both diagonal blocks exactly zero, as block_embed gives at
    every z) is returned as X alone; for a permutation P its blocks are gathered one at a time into a
    Fortran-ordered X, never A' whole.  Raises NotCSymmetricError (_symmetrized), and PreconditionError
    for a shift z that is not finite.
    """
    mat = _as_matrix(a)
    if not np.isfinite(z):
        raise PreconditionError(f"shift z = {z} must be finite")
    n = mat.shape[0]
    if conj is not None and conj.n != n:
        raise ValueError(f"conjugation size {conj.n} does not match matrix size {n}")
    rows = np.arange(n) if conj is None else conj.rows
    h = n // 2
    if rows is not None:
        def block(r, c):  # block (r, c) of A' = (A - z I)[rows], h x h
            sub = rows[r * h:(r + 1) * h]
            b = mat[sub, c * h:(c + 1) * h]
            b[sub // h == c, sub[sub // h == c] - c * h] -= z
            return b

        if n % 2 == 0 and not (block(0, 0).any() or block(1, 1).any()):
            return mat, _symmetrized(block(0, 1).T, block(1, 0), mat)
        reduced = mat[rows]
        reduced[np.arange(n), rows] -= z
    else:
        shifted = mat.copy()
        shifted.flat[::n + 1] -= z
        reduced = np.conj(conj.p) @ shifted
    reduced = _symmetrized(reduced, reduced.T, mat)
    bipartite = n % 2 == 0 and not (reduced[:h, :h].any() or reduced[h:, h:].any())
    return mat, reduced[h:, :h] if bipartite else reduced


@one_blas_thread
def antilinear_spectrum(a, conj: Conjugation | None = None, z: complex = 0.0) -> AntilinearSpectrum:
    """All solutions of (A - z) u = lam * P conj(u), lambdas ascending.

    Internally reduces to the plain problem for A' = conj(P) @ (A - z I)
    (P symmetric unitary implies P^-1 = conj(P)), so the lambdas equal the
    singular values of A - z I and the largest is ||A - z||.

    Raises NotCSymmetricError when A' deviates from symmetry by more than
    SYMMETRY_RTOL * ||A||, signalling an inconsistent (matrix, conjugation) pair.
    """
    mat, reduced = _reduced(a, conj, z)
    if reduced.shape != mat.shape:
        # the SVD overwrites X, which rebinding frees before the 2n x 2n vectors exist
        reduced = scipy.linalg.svd(reduced, overwrite_a=True, check_finite=False)
        lambdas, vectors, degenerate = _antilinear_bipartite(*reduced)
    else:
        # A' is freed before eigh, whose peak is the doubling plus its workspace
        s = real_doubling(reduced)
        del reduced
        lambdas, vectors, degenerate = _antilinear_plain(s)
    return AntilinearSpectrum(lambdas=lambdas, vectors=vectors, degenerate=degenerate)


def takagi(a) -> TakagiFactorization:
    """Takagi factorization A = U diag(sigma) U^T of a complex symmetric matrix.

    Columns of U are the complex conjugates of the antilinear eigenvectors:
    if A w = sigma conj(w) then u = conj(w) satisfies A conj(u) = sigma u.
    Warns with DegenerateClusterWarning when singular values cluster within
    CLUSTER_RTOL * ||A|| (any orthonormal basis of the cluster is valid).
    """
    spec = antilinear_spectrum(a)
    if spec.degenerate:
        warnings.warn(
            f"singular values cluster within {CLUSTER_RTOL:g} * ||A||; "
            "the basis of each cluster is one orthonormal basis of many",
            DegenerateClusterWarning,
        )
    sigma = spec.lambdas[::-1].copy()
    u = np.conj(spec.vectors[:, ::-1])
    return TakagiFactorization(u=u, sigma=sigma)


def _singular(lam: float, lower: float, upper: float, norm, shift: complex) -> None:
    """Raise SingularShiftError when lam < max(SINGULAR_RTOL * ||A||, ABS_FLOOR).

    The shift is then numerically in the spectrum.  Bounds lower <= ||A|| <= upper
    decide first; the exact ||A||, from the zero-argument callable `norm`, is
    computed only when lam falls between their thresholds.
    """
    def below(scale):
        return lam < max(SINGULAR_RTOL * scale, ABS_FLOOR)

    if below(lower) or (below(upper) and below(norm())):
        raise SingularShiftError(
            f"min lambda {lam:.3e} is below {SINGULAR_RTOL:g} * ||A||; "
            f"shift {shift:.6g} is numerically in the spectrum"
        )


@functools.lru_cache(maxsize=8)
def _start(n: int) -> np.ndarray:
    """_lanczos's seeded real unit start vector of length n, drawn once per n (read-only)."""
    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


def _lanczos(solve, solve_t, n: int, what: str, value_only: bool = False,
             start: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """(sigma, x): sigma_min of an n x n X (an upper bound) and a unit right singular vector x.

    Thick-restart Lanczos (Wu & Simon 2000) from a seeded real start for the top eigenvalue
    theta = sigma^-2 of (X^* X)^-1, applied as solve(conj(solve_t(conj(v)))) with solve = X^-1 and
    solve_t = X^-T: K^2 for complex symmetric X (solve_t = solve, K = X^-1 o conj), and a real X
    keeps the basis real.  A warm `start`, such as a nearby shift's x, replaces the seeded start by
    start / |start| + WARM_BLEND * (seeded start), normalized.  The seeded part keeps the run from
    ending at the wrong value: a start that is X's right singular vector at sigma_2, the next value
    above sigma_min (nearly what a neighbour's x can be when sigma_2 / sigma_min is near 1), spans an
    invariant subspace, so its residual is at rounding level and both stopping tests accept sigma_2;
    the blend puts a residual of about WARM_BLEND theta into the first step, and Lanczos goes on
    until it has found sigma_min.  At most NCV basis vectors, each orthogonalized against all by two
    classical Gram-Schmidt passes, whose real parts fill T = V^* (X^* X)^-1 V.  After every step
    LAPACK (?stev, ?syev once a restart has put an arrowhead block in T) gives the top Ritz pair
    (theta, y) and the next Ritz value theta_2.  With r = beta |y_last| (beta the residual norm) the
    run stops when the basis spans the space, when r <= LANCZOS_TOL theta (ARPACK's rule, which x
    needs) or, for value_only, on the value test: r^2 <= LANCZOS_VALUE_TOL theta (theta - theta_2)
    and r^2 <= LANCZOS_TOL CLUSTER_RTOL theta^2.  Kato-Temple (Parlett 1998, sec. 10) bounds
    lambda - theta by r^2 / (theta - lambda_2), but theta_2 <= lambda_2 (interlacing), so the Ritz
    gap of the first test is a heuristic that overstates the true gap, blind to a partner the basis
    has not yet resolved.  The second test bounds what such a partner can do: one with theta -
    lambda_2 >= CLUSTER_RTOL theta moves theta by at most LANCZOS_TOL theta, the vector rule's own
    bound, and a closer one is in sigma_min's cluster, so the value stays inside the cluster.  A
    full basis restarts from its NCV / 2 top Ritz vectors and the residual.  Raises
    ConvergenceError, naming `what`, after LANCZOS_MAXITER restarts.  A step costs its two solves
    plus O(NCV n) BLAS-2: each Gram-Schmidt pass is two ?gemv on the basis rows read as Fortran
    columns (conjugate transpose for the projections, the update in place), and the new basis vector
    is written in place.
    """
    def apply(v):
        return solve(np.conj(solve_t(np.conj(v))))

    size = min(NCV, n)
    t = np.zeros((size, size))
    syev, stev = scipy.linalg.lapack.get_lapack_funcs(("syev", "stev"), (t,))
    v = _start(n)
    if start is not None:
        v = start / np.linalg.norm(start) + WARM_BLEND * v
        v /= np.linalg.norm(v)
    w = apply(v)
    basis = np.empty((size, n), dtype=w.dtype)
    gemv = scipy.linalg.blas.get_blas_funcs("gemv", (basis,))
    basis[0] = v
    j = restarts = 0
    while True:
        cols = basis[:j + 1].T  # n x (j + 1), Fortran-ordered: no copy for ?gemv
        h = gemv(1.0, cols, w, trans=2)  # V^* w
        w = gemv(-1.0, cols, h, 1.0, w, overwrite_y=True)
        again = gemv(1.0, cols, w, trans=2)
        w = gemv(-1.0, cols, again, 1.0, w, overwrite_y=True)
        t[j, :j + 1] = t[:j + 1, j] = (h + again).real
        beta = math.sqrt(np.vdot(w, w).real)
        if j and not restarts:  # T is tridiagonal, to rounding
            theta, y, _ = stev(t.diagonal()[:j + 1], t.diagonal(1)[:j])
        else:
            theta, y, _ = syev(t[:j + 1, :j + 1])
        r = beta * abs(y[j, j])  # theta ascends
        if r <= LANCZOS_TOL * theta[j] or j + 1 == n or value_only and j and r * r <= theta[j] * min(
                LANCZOS_VALUE_TOL * (theta[j] - theta[j - 1]), LANCZOS_TOL * CLUSTER_RTOL * theta[j]):
            return theta[j] ** -0.5, y[:, j] @ basis[:j + 1]
        if j + 1 == size:
            if restarts == LANCZOS_MAXITER:
                raise ConvergenceError(f"Lanczos for {what}: not converged after {LANCZOS_MAXITER} restarts")
            restarts += 1
            keep = size // 2
            for lo in range(0, n, _RESTART_COLUMNS):  # Ritz vectors in place, a block of columns at a time
                basis[:keep, lo:lo + _RESTART_COLUMNS] = y[:, -keep:].T @ basis[:, lo:lo + _RESTART_COLUMNS]
            t[:] = 0.0
            t[:keep, :keep] = np.diag(theta[-keep:])
            j = keep - 1
        j += 1
        np.multiply(w, 1.0 / beta, out=basis[j])
        w = apply(basis[j])


def _check_solve(x: np.ndarray, singular: str) -> np.ndarray:
    """x, a shifted solve; SingularShiftError(singular) for an entry not below SOLVE_MAX (inf and NaN included).

    A vector with sum |x_i|^2 below SOLVE_MAX^2 / 4, one BLAS dot product, passes without the entrywise
    scan: a rounded sum of nonnegative terms is not below its largest term less rounding, so every
    |x_i| is about SOLVE_MAX / 2 or less.  Anything else (inf, NaN, an overflowing or large sum) and
    every n x k block take the scan, which decides; the raise set is the scan's alone.
    """
    if x.ndim == 1 and np.vdot(x, x).real < SOLVE_MAX ** 2 / 4:  # finite: SOLVE_MAX^2 = 1 / tiny
        return x
    if not np.abs(x).max() < SOLVE_MAX:
        raise SingularShiftError(singular)
    return x


def _dense_lu(a: np.ndarray):
    """Factor the square array a once (?getrf, in place); return solve(b) = a^-1 b, solve(b, 1) = a^-T b.

    b is one vector.  P^T a = L U, so a^-1 b = U^-1 L^-1 (P^T b) and a^-T b = P L^-T U^-T b, each two
    ?trsv, which one OpenBLAS thread runs about 2-3x faster than ?getrs with one right-hand side.
    Raises SingularShiftError at a zero pivot and from _check_solve.
    """
    getrf, laswp = scipy.linalg.lapack.get_lapack_funcs(("getrf", "laswp"), (a,))
    trsv = scipy.linalg.blas.get_blas_funcs("trsv", (a,))
    lu, piv, info = getrf(a, overwrite_a=True)
    if info > 0:
        raise SingularShiftError(f"A - z is singular: zero pivot {info}")
    # (P^T b)_i = b[perm[i]]: ?getrf's row interchanges applied to the row numbers
    perm = laswp(np.arange(lu.shape[0], dtype=lu.dtype)[:, None], piv)[:, 0].real.astype(np.intp)
    singular = "A - z is singular to working precision"

    def solve(b, trans=0):
        if trans:
            x = np.empty_like(b, dtype=lu.dtype)
            x[perm] = trsv(lu, trsv(lu, b, trans=1), lower=1, trans=1, diag=1, overwrite_x=True)
        else:
            x = trsv(lu, trsv(lu, b[perm], lower=1, diag=1, overwrite_x=True), overwrite_x=True)
        return _check_solve(x, singular)

    return solve


@one_blas_thread
def resolvent_norm(a, conj: Conjugation | None = None, z: complex = 0.0) -> float:
    """Operator norm of (A - z I)^-1 as 1 / min lambda of the antilinear problem.

    min lambda is sigma_min of the reduced A', which _lanczos takes from
    (A'^* A')^-1 = K^2, K = A'^-1 o conj, on one LU of A' (_dense_lu).  A
    bipartite A' = [[0, X^T], [X, 0]] has the singular values of its n x n X,
    each twice: it factors X alone, and _lanczos solves with X and X^T.
    Raises SingularShiftError from _dense_lu and when min lambda < SINGULAR_RTOL
    * ||A|| (_singular, with ||A||_F / sqrt(n) <= ||A|| <= ||A||_F), ConvergenceError from _lanczos.
    Only sigma is needed, so Lanczos takes its value test.
    """
    mat, reduced = _reduced(a, conj, z)
    bipartite = reduced.shape != mat.shape
    # getrf overwrites X, or A' through its Fortran-ordered view reduced.T (A' is symmetric)
    lu_solve = _dense_lu(reduced if bipartite else reduced.T)
    solve_t = (lambda b: lu_solve(b, 1)) if bipartite else lu_solve
    lam_min, _ = _lanczos(lu_solve, solve_t, reduced.shape[0], f"sigma_min at z={z}", value_only=True)
    fro = float(np.linalg.norm(mat))
    _singular(lam_min, fro / mat.shape[0] ** 0.5, fro, lambda: float(scipy.linalg.svdvals(mat)[0]), z)
    return 1.0 / lam_min


def block_embed(m) -> tuple[np.ndarray, Conjugation]:
    """Embed a general square M as the C-selfadjoint block diag(M, M^T), a plain array.

    The returned pair uses the swap conjugation C = [[0, conj], [conj, 0]];
    conj(P) @ H = [[0, M^T], [M, 0]] is then plain complex symmetric.  The
    antilinear spectrum of the embedding is the multiset of singular values
    of M with every multiplicity doubled, so the embedded resolvent norm
    equals ||(M - z)^-1||.
    """
    mat = _as_matrix(m)
    n = mat.shape[0]
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[:n, :n] = mat
    h[n:, n:] = mat.T
    return h, Conjugation.swap(n)


def _whole(a) -> np.ndarray:
    """A' = A made exactly symmetric (_reduced at P = I, z = 0), a bipartite one rebuilt from its X."""
    mat, x = _reduced(a, None, 0.0)
    return x if x.shape == mat.shape else np.block([[np.zeros_like(x), x.T], [x, np.zeros_like(x)]])


@one_blas_thread
def minmax_norm(a) -> float:
    """max over unit u of Re(u^T A u); equals ||A|| for complex symmetric A.

    Exact identity Re(u^T A u) = w^T S w for w = (Re u, Im u) turns the
    maximization into the largest eigenvalue of the real doubling S.  Raises
    NotCSymmetricError, as antilinear_spectrum does, when A deviates from
    symmetry by more than SYMMETRY_RTOL * ||A||.
    """
    s = real_doubling(_whole(a))
    m = s.shape[0]
    # s is symmetric, so s.T is a Fortran-ordered view that eigh overwrites
    top = scipy.linalg.eigh(s.T, eigvals_only=True, subset_by_index=[m - 1, m - 1], overwrite_a=True)
    return float(top[0])


def _real_subspace_basis(q: np.ndarray) -> np.ndarray:
    """Orthonormal real basis of {(Re u, Im u) : u in span(q)} in R^(2n).

    For a complex-orthonormal q (n x m) the 2m columns built from q and i*q
    are real-orthonormal.
    """
    re, im = q.real, q.imag
    return np.block([[re, -im], [im, re]])


@one_blas_thread
def minmax_even_lower_check(a, n_codim: int, trials: int, seed: int = 0) -> bool:
    """One-sided sampling check of the even-index min-max principle.

    For `trials` random codimension-n subspaces V of C^dim, verifies
    max_{u in V, |u|=1} Re(u^T A u) >= lambda_{2n}(A) - 1e-9 ||A||, where
    the lambdas are sorted descending with multiplicity.  Each sampled V is
    the kernel of n random complex functionals; the compressed maximization
    is the top eigenvalue of the doubled matrix restricted to the matching
    real subspace.
    """
    reduced = _whole(a)
    dim = reduced.shape[0]
    if 2 * n_codim >= dim:
        raise IndexOutOfRangeError(
            f"need 2n < dimension, got 2*{n_codim} >= {dim}"
        )
    if trials < 1:
        raise ValueError("trials must be >= 1")

    # the doubling's eigenvalues, descending, begin with the singular values: the first is ||A||
    s = real_doubling(reduced)
    sv = scipy.linalg.eigvalsh(s)[::-1]
    target = sv[2 * n_codim] - 1e-9 * max(sv[0], ABS_FLOOR)

    rng = np.random.default_rng(seed)
    for _ in range(trials):
        f = rng.standard_normal((n_codim, dim)) + 1j * rng.standard_normal((n_codim, dim))
        basis = _real_subspace_basis(scipy.linalg.null_space(f))
        compressed = basis.T @ s @ basis
        compressed = 0.5 * (compressed + compressed.T)
        m = compressed.shape[0]
        top = float(
            scipy.linalg.eigh(compressed, eigvals_only=True, subset_by_index=[m - 1, m - 1])[0]
        )
        if top < target:
            return False
    return True
