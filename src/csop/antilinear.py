"""Antilinear eigenvalue problems for dense complex symmetric matrices.

A complex symmetric matrix A (A == A.T, plain transpose) together with a
conjugation C x = P @ conj(x) defines the antilinear problem

    (A - z) u = lam * C u,   lam >= 0.

Every solver here reduces it to one real symmetric eigenproblem of twice the
size: writing u = x + i y and A = B + i C', the problem is equivalent to
S w = lam w with w = (x, y) and S = [[B, -C'], [-C', -B]].  The positive
eigenvalues of S are the singular values of A, and the eigenvectors give
phase-correct antilinear eigenvectors u = x + i y.  This is also the engine
behind the Takagi factorization and the variational norm principle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateClusterWarning,
    IndexOutOfRangeError,
    NotCSymmetricError,
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
SINGULAR_RTOL = 1e-13    # smallest lambda below this (rel.) means z is in the spectrum


class ComplexSymmetricMatrix:
    """Dense complex square matrix, symmetrized at construction.

    With ``symmetrize=False`` the entries are kept as given; the caller then
    asserts C-selfadjointness with respect to an accompanying non-default
    conjugation instead of plain symmetry (used by :func:`block_embed`).
    """

    def __init__(self, entries, symmetrize: bool = True):
        a = np.array(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a.view(float))):
            raise ValueError("matrix entries must be finite")
        if symmetrize:
            a = 0.5 * (a + a.T)
        self.matrix = a
        self.n = a.shape[0]
        self._norm = None

    @property
    def norm(self) -> float:
        """Spectral norm (largest singular value), cached."""
        if self._norm is None:
            self._norm = float(np.linalg.norm(self.matrix, 2)) if self.n else 0.0
        return self._norm

    def __repr__(self):
        return f"ComplexSymmetricMatrix(n={self.n})"


class Conjugation:
    """Antilinear involution x -> P @ conj(x) with P symmetric unitary.

    Every conjugation on a finite-dimensional space has this form; the
    default P = I is plain entrywise conjugation.
    """

    _TOL = 1e-12

    def __init__(self, p):
        p = np.array(p, dtype=complex)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {p.shape}")
        if np.max(np.abs(p - p.T)) > self._TOL:
            raise ValueError("conjugation matrix P must be symmetric (within 1e-12)")
        eye = np.eye(p.shape[0])
        if np.max(np.abs(p @ p.conj().T - eye)) > self._TOL:
            raise ValueError("conjugation matrix P must be unitary (within 1e-12)")
        self.p = p
        self.n = p.shape[0]

    @classmethod
    def identity(cls, n: int) -> "Conjugation":
        return cls(np.eye(n))

    @classmethod
    def swap(cls, n: int) -> "Conjugation":
        """Block swap [[0, I], [I, 0]] on C^(2n), used by the block embedding."""
        eye = np.eye(n)
        zero = np.zeros((n, n))
        return cls(np.block([[zero, eye], [eye, zero]]))

    @property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.p, np.eye(self.n)))

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        return self.p @ np.conj(x)

    def __repr__(self):
        return f"Conjugation(n={self.n}, identity={self.is_identity})"


@dataclass
class AntilinearSpectrum:
    """Solutions of (A - z) u_k = lambdas[k] * P conj(u_k).

    lambdas are ascending and nonnegative; column k of ``vectors`` is the
    unit-norm eigenvector paired with lambdas[k] and the columns are
    orthonormal.  ``matrix_norm`` is the spectral norm of the input matrix
    and ``degenerate`` flags singular-value clusters that required
    re-orthogonalization.
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    matrix_norm: float = 0.0
    degenerate: bool = False


@dataclass
class TakagiFactorization:
    """A = u @ diag(sigma) @ u.T with u unitary and sigma descending."""

    u: np.ndarray
    sigma: np.ndarray


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, ComplexSymmetricMatrix):
        return a.matrix
    return np.asarray(a, dtype=complex)


def real_doubling(a) -> np.ndarray:
    """Real symmetric 2n x 2n doubling of a complex symmetric matrix.

    For A = B + i C' the matrix S = [[B, -C'], [-C', -B]] satisfies
    A (x + i y) = lam * conj(x + i y)  iff  S (x, y) = lam (x, y), and its
    spectrum is exactly {+-sigma_k(A)}.
    """
    mat = _as_matrix(a)
    b = mat.real
    c = mat.imag
    return np.block([[b, -c], [-c, -b]])


def _fix_sign(u: np.ndarray) -> np.ndarray:
    """Deterministic sign for an antilinear eigenvector.

    Only +-1 preserve the antilinear eigen-equation, so this normalizes the
    sign such that the largest-magnitude entry has nonnegative real part
    (nonnegative imaginary part breaking ties when the real part vanishes).
    """
    k = int(np.argmax(np.abs(u)))
    z = u[k]
    m = abs(z)
    if m == 0.0:
        return u
    if z.real < -1e-12 * m or (abs(z.real) <= 1e-12 * m and z.imag < 0.0):
        return -u
    return u


def _orthonormal_columns(cands: np.ndarray, keep: int, rank_tol: float = 1e-4):
    """Modified Gram-Schmidt with rank selection; keeps `keep` columns."""
    out = []
    for j in range(cands.shape[1]):
        v = cands[:, j].copy()
        for _ in range(2):  # second pass restores orthogonality lost to rounding
            for u in out:
                v -= u * np.vdot(u, v)
        nrm = np.linalg.norm(v)
        if nrm > rank_tol:
            out.append(v / nrm)
        if len(out) == keep:
            break
    if len(out) < keep:
        raise np.linalg.LinAlgError(
            "rank-deficient degenerate cluster: could not extract an orthonormal basis"
        )
    return np.column_stack(out)


def _antilinear_plain(mat: np.ndarray, scale: float):
    """Solve A u = lam conj(u) for plain complex symmetric A.

    Returns (lambdas descending, vectors as columns, degenerate flag).
    """
    n = mat.shape[0]
    s = real_doubling(mat)
    evals, evecs = scipy.linalg.eigh(s)
    ctol = max(CLUSTER_RTOL * scale, ABS_FLOOR)

    # top-n eigenvalues of S, descending, are the singular values of A
    lam = evals[::-1][:n].copy()
    cols = evecs[:, ::-1][:, :n]

    # group indices into clusters of (numerically) equal singular values
    clusters = []
    start = 0
    for i in range(1, n):
        if lam[i - 1] - lam[i] > ctol:
            clusters.append(range(start, i))
            start = i
    clusters.append(range(start, n))

    vectors = np.empty((n, n), dtype=complex)
    degenerate = False
    for cluster in clusters:
        idx = list(cluster)
        if len(idx) > 1:
            degenerate = True
        if lam[idx[-1]] > ctol:
            # strictly positive cluster: real-orthonormal doubled eigenvectors
            # already give C-orthonormal u = x + i y; re-orthogonalize anyway
            # to clean up numerically split clusters
            cand = cols[:n, idx] + 1j * cols[n:, idx]
            block = cand if len(idx) == 1 else _orthonormal_columns(cand, len(idx))
        else:
            # zero cluster: the kernel of S has twice the complex dimension
            # (u and i*u double it); rank-select a complex-orthonormal basis
            zero_cut = max(ctol, lam[idx[0]] + ctol)
            kern = evecs[:, np.abs(evals) <= zero_cut]
            cand = kern[:n] + 1j * kern[n:]
            block = _orthonormal_columns(cand, len(idx))
            lam[idx] = np.maximum(lam[idx], 0.0)
        for pos, j in enumerate(idx):
            vectors[:, j] = _fix_sign(block[:, pos])

    lam = np.maximum(lam, 0.0)
    return lam, vectors, degenerate


def _matrix_norm(a, mat: np.ndarray) -> float:
    """||A||_2 of the input `a` whose array is `mat`, cached on a ComplexSymmetricMatrix."""
    return a.norm if isinstance(a, ComplexSymmetricMatrix) else float(np.linalg.norm(mat, 2))


def _reduced(a, conj: Conjugation | None, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """(A, A' = conj(P) @ (A - z I) symmetrized), the plain problem behind (A, P, z).

    P symmetric unitary implies P^-1 = conj(P), so (A - z) u = lam P conj(u)
    is A' u = lam conj(u).  Raises NotCSymmetricError when A' deviates from
    symmetry by more than SYMMETRY_RTOL * ||A||, signalling an inconsistent
    (matrix, conjugation) pair; ||A|| is computed only for an asymmetry above
    ABS_FLOOR.
    """
    mat = _as_matrix(a)
    n = mat.shape[0]
    shifted = mat - z * np.eye(n)
    if conj is None or conj.is_identity:
        reduced = shifted
    else:
        if conj.n != n:
            raise ValueError(f"conjugation size {conj.n} does not match matrix size {n}")
        reduced = np.conj(conj.p) @ shifted

    asym = float(np.max(np.abs(reduced - reduced.T))) if n else 0.0
    if asym > ABS_FLOOR:
        scale = _matrix_norm(a, mat)
        if asym > SYMMETRY_RTOL * scale:
            raise NotCSymmetricError(
                f"conj(P) @ (A - z I) deviates from symmetry by {asym:.3e} "
                f"(> {SYMMETRY_RTOL:g} * ||A|| = {SYMMETRY_RTOL * scale:.3e})"
            )
    return mat, 0.5 * (reduced + reduced.T)


def antilinear_spectrum(a, conj: Conjugation | None = None, z: complex = 0.0) -> AntilinearSpectrum:
    """All solutions of (A - z) u = lam * P conj(u), lambdas ascending.

    Internally reduces to the plain problem for A' = conj(P) @ (A - z I)
    (P symmetric unitary implies P^-1 = conj(P)), so the lambdas equal the
    singular values of A - z I.

    Raises NotCSymmetricError when A' deviates from symmetry by more than
    SYMMETRY_RTOL * ||A||, signalling an inconsistent (matrix, conjugation) pair.
    """
    mat, reduced = _reduced(a, conj, z)
    scale = _matrix_norm(a, mat)
    lam_desc, vec_desc, degenerate = _antilinear_plain(reduced, scale)
    return AntilinearSpectrum(
        lambdas=lam_desc[::-1].copy(),
        vectors=vec_desc[:, ::-1].copy(),
        matrix_norm=scale,
        degenerate=degenerate,
    )


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
            "cluster basis fixed by re-orthogonalization",
            DegenerateClusterWarning,
        )
    sigma = spec.lambdas[::-1].copy()
    u = np.conj(spec.vectors[:, ::-1])
    return TakagiFactorization(u=u, sigma=sigma)


def _singular(lam: float, bound: float, norm) -> bool:
    """True when lam < max(SINGULAR_RTOL * ||A||, ABS_FLOOR): the shift is numerically in the spectrum.

    `bound` >= ||A|| decides first; the exact ||A||, from the zero-argument
    callable `norm`, is computed only when lam falls below the bound's threshold.
    """
    return lam < max(SINGULAR_RTOL * bound, ABS_FLOOR) and lam < max(SINGULAR_RTOL * norm(), ABS_FLOOR)


def resolvent_norm(a, conj: Conjugation | None = None, z: complex = 0.0) -> float:
    """Operator norm of (A - z I)^-1 as 1 / min lambda of the antilinear problem.

    Min lambda is eigenvalue n (from 0) of the 2n doubling of the reduced
    problem, taken alone.  Raises SingularShiftError when min lambda <
    SINGULAR_RTOL * ||A||: z is numerically in the spectrum (_singular, with
    the Frobenius norm as the bound).
    """
    mat, reduced = _reduced(a, conj, z)
    n = mat.shape[0]
    lam_min = max(float(scipy.linalg.eigh(
        real_doubling(reduced), eigvals_only=True, subset_by_index=[n, n]
    )[0]), 0.0)
    if _singular(lam_min, float(np.linalg.norm(mat)), lambda: _matrix_norm(a, mat)):
        raise SingularShiftError(
            f"min antilinear eigenvalue {lam_min:.3e} is below "
            f"{SINGULAR_RTOL:g} * ||A||; shift z={z} is numerically in the spectrum"
        )
    return 1.0 / lam_min


def block_embed(m) -> tuple[ComplexSymmetricMatrix, Conjugation]:
    """Embed a general square M as the C-selfadjoint block diag(M, M^T).

    The returned pair uses the swap conjugation C = [[0, conj], [conj, 0]];
    conj(P) @ H = [[0, M^T], [M, 0]] is then plain complex symmetric.  The
    antilinear spectrum of the embedding is the multiset of singular values
    of M with every multiplicity doubled, so the embedded resolvent norm
    equals ||(M - z)^-1||.
    """
    mat = np.asarray(m, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    n = mat.shape[0]
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[:n, :n] = mat
    h[n:, n:] = mat.T
    return ComplexSymmetricMatrix(h, symmetrize=False), Conjugation.swap(n)


def minmax_norm(a) -> float:
    """max over unit u of Re(u^T A u); equals ||A|| for complex symmetric A.

    Exact identity Re(u^T A u) = w^T S w for w = (Re u, Im u) turns the
    maximization into the largest eigenvalue of the real doubling S.  Raises
    NotCSymmetricError, as antilinear_spectrum does, when A deviates from
    symmetry by more than SYMMETRY_RTOL * ||A||.
    """
    s = real_doubling(_reduced(a, None, 0.0)[1])
    m = s.shape[0]
    top = scipy.linalg.eigh(s, eigvals_only=True, subset_by_index=[m - 1, m - 1])
    return float(top[0])


def _real_subspace_basis(q: np.ndarray) -> np.ndarray:
    """Orthonormal real basis of {(Re u, Im u) : u in span(q)} in R^(2n).

    For a complex-orthonormal q (n x m) the 2m columns built from q and i*q
    are real-orthonormal.
    """
    re, im = q.real, q.imag
    return np.block([[re, -im], [im, re]])


def minmax_even_lower_check(a, n_codim: int, trials: int, seed: int = 0) -> bool:
    """One-sided sampling check of the even-index min-max principle.

    For `trials` random codimension-n subspaces V of C^dim, verifies
    max_{u in V, |u|=1} Re(u^T A u) >= lambda_{2n}(A) - 1e-9 ||A||, where
    the lambdas are sorted descending with multiplicity.  Each sampled V is
    the kernel of n random complex functionals; the compressed maximization
    is the top eigenvalue of the doubled matrix restricted to the matching
    real subspace.
    """
    mat = _as_matrix(a)
    dim = mat.shape[0]
    if 2 * n_codim >= dim:
        raise IndexOutOfRangeError(
            f"need 2n < dimension, got 2*{n_codim} >= {dim}"
        )
    if trials < 1:
        raise ValueError("trials must be >= 1")

    spec = antilinear_spectrum(a)
    lam_desc = spec.lambdas[::-1]
    target = lam_desc[2 * n_codim] - 1e-9 * max(spec.matrix_norm, ABS_FLOOR)

    s = real_doubling(a)
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
