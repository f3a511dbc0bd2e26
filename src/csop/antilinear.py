"""Antilinear eigenvalue problems for dense complex symmetric matrices.

A complex symmetric matrix A (A == A.T, plain transpose) together with a
conjugation C x = P @ conj(x) defines the antilinear problem

    (A - z) u = lam * C u,   lam >= 0.

Every solver here reduces it to one real symmetric eigenproblem of twice the
size: writing u = x + i y and A = B + i C', the problem is equivalent to
S w = lam w with w = (x, y) and S = [[B, -C'], [-C', -B]].  The positive
eigenvalues of S are the singular values of A, and the eigenvectors give
phase-correct antilinear eigenvectors u = x + i y, orthonormal as they come
except in the kernel, where one SVD orthonormalises.  Full spectra (and the
Takagi factorization) come from divide-and-conquer eigh on S in place, whose
top eigenvalue ||A - z|| (||A|| at z = 0) scales the cluster tolerance, so no
SVD of A runs.  The one exception is a reduced A' = [[0, X^T], [X, 0]] with
both diagonal blocks exactly zero, which block_embed gives at every z: its
spectrum is exactly the SVD of the n x n block X (Jordan-Wielandt), each
singular value twice, so one SVD of X replaces eigh on the 4n doubling
(_antilinear_bipartite).  The exact ||A||, the top of scipy.linalg.svdvals(A), is
computed only for the asymmetry and singular-shift thresholds.  The resolvent norm comes from
_lanczos, the thick-restart shift-invert Lanczos of schrodinger's banded norms too (at most NCV
basis vectors, a convergence test after every step), on a dense LU of A - z (_dense_lu).  A
permutation P is applied as a row gather (the block swap stores its rows alone, not P).
Every dense input, a ComplexSymmetricMatrix (always symmetric) or a plain
array, passes one gate, _as_matrix: n x n, n >= 1, finite, else ValueError;
a shift z that is not finite raises PreconditionError (_reduced).  Every
solve, dense here and banded in schrodinger._band_lu, passes one bound,
_check_solve: an entry not below SOLVE_MAX means the shift is singular.
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
LANCZOS_MAXITER = 100    # restarts before shift-invert Lanczos gives up
NCV = 20                 # Lanczos basis vectors held at once (ARPACK's ncv for one eigenpair)
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


def _antilinear_bipartite(x: np.ndarray):
    """(lambdas ascending, vectors, True) of A' w = lam conj(w) for A' = [[0, X^T], [X, 0]], from one SVD of X.

    X v_k = sigma_k u_k gives X^T conj(u_k) = sigma_k conj(v_k), so the orthonormal (v_k, conj u_k) / sqrt2
    and i (v_k, -conj u_k) / sqrt2 both solve it with lam = sigma_k: every value is doubled, hence degenerate.
    """
    n = x.shape[0]
    u, sigma, vh = scipy.linalg.svd(x, check_finite=False)
    vectors = np.empty((2 * n, 2 * n), dtype=complex)
    v, cu = vectors[:n, 0::2], vectors[n:, 0::2]
    np.conj(vh[::-1].T, out=v)  # columns in ascending sigma
    np.conj(u[:, ::-1], out=cu)
    np.multiply(v, 1j, out=vectors[:n, 1::2])
    np.multiply(cu, -1j, out=vectors[n:, 1::2])
    vectors *= 0.5 ** 0.5
    del u, vh  # before _fix_sign allocates its temporaries
    return np.repeat(sigma[::-1], 2), _fix_sign(vectors), True


def _reduced(a, conj: Conjugation | None, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """(A, A' = conj(P) @ (A - z I) made exactly symmetric), the plain problem behind (A, P, z).

    P symmetric unitary implies P^-1 = conj(P), so (A - z) u = lam P conj(u)
    is A' u = lam conj(u); for a permutation P (or none) A' = (A - z I)[rows].
    An exactly symmetric A' is returned as it is; otherwise raises
    NotCSymmetricError when A' deviates from symmetry by more than
    SYMMETRY_RTOL * ||A||, signalling an inconsistent (matrix, conjugation)
    pair; ||A|| is computed only for an asymmetry above ABS_FLOOR.  Raises
    PreconditionError for a shift z that is not finite.
    """
    mat = _as_matrix(a)
    if not np.isfinite(z):
        raise PreconditionError(f"shift z = {z} must be finite")
    n = mat.shape[0]
    if conj is not None and conj.n != n:
        raise ValueError(f"conjugation size {conj.n} does not match matrix size {n}")
    rows = np.arange(n) if conj is None else conj.rows
    if rows is not None:
        reduced = mat[rows]
        reduced[np.arange(n), rows] -= z
    else:
        shifted = mat.copy()
        shifted.flat[::n + 1] -= z
        reduced = np.conj(conj.p) @ shifted

    if not np.array_equal(reduced, reduced.T):
        asym = float(np.max(np.abs(reduced - reduced.T)))
        if asym > ABS_FLOOR:
            scale = float(scipy.linalg.svdvals(mat)[0])
            if asym > SYMMETRY_RTOL * scale:
                raise NotCSymmetricError(
                    f"conj(P) @ (A - z I) deviates from symmetry by {asym:.3e} "
                    f"(> {SYMMETRY_RTOL:g} * ||A|| = {SYMMETRY_RTOL * scale:.3e})"
                )
        reduced = 0.5 * (reduced + reduced.T)
    return mat, reduced


@one_blas_thread
def antilinear_spectrum(a, conj: Conjugation | None = None, z: complex = 0.0) -> AntilinearSpectrum:
    """All solutions of (A - z) u = lam * P conj(u), lambdas ascending.

    Internally reduces to the plain problem for A' = conj(P) @ (A - z I)
    (P symmetric unitary implies P^-1 = conj(P)), so the lambdas equal the
    singular values of A - z I and the largest is ||A - z||.

    Raises NotCSymmetricError when A' deviates from symmetry by more than
    SYMMETRY_RTOL * ||A||, signalling an inconsistent (matrix, conjugation) pair.
    """
    reduced = _reduced(a, conj, z)[1]
    n = reduced.shape[0] // 2
    if 2 * n == reduced.shape[0] and not (reduced[:n, :n].any() or reduced[n:, n:].any()):
        lambdas, vectors, degenerate = _antilinear_bipartite(reduced[n:, :n])
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


def _lanczos(solve, m: int, what: str) -> tuple[float, np.ndarray]:
    """(sigma, w): the smallest |eigenvalue| of an m x m real symmetric S (an upper bound) and its eigenvector.

    Thick-restart Lanczos (Wu & Simon 2000) on solve(v) = S^-1 v, from a
    seeded start, for its largest-magnitude eigenvalue theta = +-1 / sigma.
    The basis holds at most NCV vectors, each new one orthogonalized against
    all by two classical Gram-Schmidt passes; the coefficients fill the
    projection T = V^T S^-1 V.  After every step LAPACK (?stev, ?syev once a
    restart has put an arrowhead block in T) gives T's Ritz pair (theta, y)
    of largest |theta|, converged when beta |y_last| <= LANCZOS_TOL |theta|
    (ARPACK's rule, beta the residual norm) or when the basis spans R^m.  A
    full basis restarts from its NCV / 2 Ritz vectors of largest |theta| and
    the residual.  Raises ConvergenceError, naming `what`, when LANCZOS_MAXITER
    restarts do not converge.
    """
    size = min(NCV, m)
    basis, t = np.empty((size, m)), np.zeros((size, size))
    syev, stev = scipy.linalg.lapack.get_lapack_funcs(("syev", "stev"), (t,))
    v = np.random.default_rng(0).standard_normal(m)
    basis[0] = v / np.linalg.norm(v)
    j = restarts = 0
    while True:
        w = solve(basis[j])
        h = basis[:j + 1] @ w
        w -= h @ basis[:j + 1]
        again = basis[:j + 1] @ w
        w -= again @ basis[:j + 1]
        t[j, :j + 1] = t[:j + 1, j] = h + again
        beta = math.sqrt(w @ w)
        if j and not restarts:  # T is tridiagonal, to rounding
            theta, y, _ = stev(t.diagonal()[:j + 1], t.diagonal(1)[:j])
        else:
            theta, y, _ = syev(t[:j + 1, :j + 1])
        top = 0 if -theta[0] > theta[j] else j  # theta ascends
        if beta * abs(y[j, top]) <= LANCZOS_TOL * abs(theta[top]) or j + 1 == m:
            return 1.0 / abs(theta[top]), y[:, top] @ basis[:j + 1]
        if j + 1 == size:
            if restarts == LANCZOS_MAXITER:
                raise ConvergenceError(f"Lanczos for {what}: not converged after {LANCZOS_MAXITER} restarts")
            restarts += 1
            keep = np.argsort(-np.abs(theta))[:size // 2]
            for lo in range(0, m, _RESTART_COLUMNS):  # Ritz vectors in place, a block of columns at a time
                basis[:keep.size, lo:lo + _RESTART_COLUMNS] = y[:, keep].T @ basis[:, lo:lo + _RESTART_COLUMNS]
            t[:] = 0.0
            t[:keep.size, :keep.size] = np.diag(theta[keep])
            j = keep.size - 1
        j += 1
        basis[j] = w / beta


def _check_solve(x: np.ndarray, singular: str) -> np.ndarray:
    """x, a shifted solve; SingularShiftError(singular) for an entry not below SOLVE_MAX (inf and NaN included)."""
    if not np.abs(x).max() < SOLVE_MAX:
        raise SingularShiftError(singular)
    return x


def _dense_lu(a: np.ndarray):
    """Factor the square array a once (?getrf, in place) and return its solve, solve(b) -> x.

    Raises SingularShiftError at a zero pivot and from _check_solve.
    """
    getrf, getrs = scipy.linalg.lapack.get_lapack_funcs(("getrf", "getrs"), (a,))
    lu, piv, info = getrf(a, overwrite_a=True)
    if info > 0:
        raise SingularShiftError(f"A - z is singular: zero pivot {info}")
    return lambda b: _check_solve(getrs(lu, piv, b)[0], "A - z is singular to working precision")


@one_blas_thread
def resolvent_norm(a, conj: Conjugation | None = None, z: complex = 0.0) -> float:
    """Operator norm of (A - z I)^-1 as 1 / min lambda of the antilinear problem.

    _lanczos takes min lambda from the 2n doubling S of the reduced A', factored
    once (_dense_lu): S w = v is A' u = conj(v) for w, v viewed as complex.
    Raises SingularShiftError from _dense_lu and when min lambda < SINGULAR_RTOL
    * ||A|| (_singular, with ||A||_F / sqrt(n) <= ||A|| <= ||A||_F), ConvergenceError from _lanczos.
    """
    mat, reduced = _reduced(a, conj, z)
    # reduced is symmetric, so reduced.T is a Fortran-ordered view that getrf overwrites
    lu_solve = _dense_lu(reduced.T)
    lam_min, _ = _lanczos(lambda v: lu_solve(np.conj(v.view(complex))).view(float),
                          2 * mat.shape[0], f"sigma_min at z={z}")
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


@one_blas_thread
def minmax_norm(a) -> float:
    """max over unit u of Re(u^T A u); equals ||A|| for complex symmetric A.

    Exact identity Re(u^T A u) = w^T S w for w = (Re u, Im u) turns the
    maximization into the largest eigenvalue of the real doubling S.  Raises
    NotCSymmetricError, as antilinear_spectrum does, when A deviates from
    symmetry by more than SYMMETRY_RTOL * ||A||.
    """
    s = real_doubling(_reduced(a, None, 0.0)[1])
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
    reduced = _reduced(a, None, 0.0)[1]
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
