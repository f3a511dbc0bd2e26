import inspect
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csop import antilinear
from csop.antilinear import (
    NCV,
    SOLVE_MAX,
    SYMMETRY_RTOL,
    ComplexSymmetricMatrix,
    Conjugation,
    _check_solve,
    _dense_lu,
    _lanczos,
    _reduced,
    antilinear_spectrum,
    block_embed,
    minmax_even_lower_check,
    minmax_norm,
    real_doubling,
    resolvent_norm,
    takagi,
)
from csop.errors import (
    ConvergenceError,
    DegenerateClusterWarning,
    IndexOutOfRangeError,
    NotCSymmetricError,
    PreconditionError,
    SingularShiftError,
)
from csop.schrodinger import Tridiagonal, _band_lu
from conftest import patch_lapack, random_complex_symmetric


class TestTypes:
    def test_constructor_symmetrizes_exactly(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = ComplexSymmetricMatrix(a)
        assert np.array_equal(m.matrix, m.matrix.T)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ComplexSymmetricMatrix([[np.inf, 0], [0, 1]])

    @pytest.mark.parametrize("solver", [ComplexSymmetricMatrix, antilinear_spectrum, takagi,
                                        resolvent_norm, minmax_norm, real_doubling, block_embed,
                                        minmax_even_lower_check])
    def test_rejects_empty_matrix(self, solver):
        # every dense entry point goes through one gate, which names the defect
        args = (0, 1) if solver is minmax_even_lower_check else ()
        for bad, message in [
            (np.zeros((0, 0)), "empty matrix"),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), "must be finite"),
            (np.array([[1.0, np.inf], [np.inf, 1.0]]), "must be finite"),
            (np.ones((2, 3)), "expected a square matrix"),
        ]:
            with pytest.raises(ValueError, match=message):
                solver(bad, *args)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: Conjugation(np.eye(2, 3)), ValueError, "expected a square matrix"),
        (lambda: antilinear_spectrum(np.eye(3), Conjugation(np.eye(2))), ValueError,
         "conjugation size 2 does not match matrix size 3"),
        (lambda: minmax_even_lower_check(np.eye(3), 0, 0), ValueError, "trials must be >= 1"),
    ], ids=["conjugation_not_square", "conjugation_wrong_size", "zero_trials"])
    def test_outside_input_checks(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_conjugation_validation(self):
        with pytest.raises(ValueError):
            Conjugation([[0, 1], [0.5, 0]])  # not symmetric
        with pytest.raises(ValueError):
            Conjugation([[2, 0], [0, 2]])  # not unitary

    def test_non_involutive_permutation_raises(self):
        # a 3-cycle, and a 0/1 matrix with one nonzero per row that is no permutation
        for p in (np.eye(3)[[1, 2, 0]], [[1, 0], [1, 0]]):
            with pytest.raises(ValueError, match="must be symmetric"):
                Conjugation(p)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_swap_matrix_is_the_dense_swap(self, n):
        i, z = np.eye(n), np.zeros((n, n))
        dense = np.block([[z, i], [i, z]])
        conj = Conjugation.swap(n)
        assert conj.p.dtype == complex and np.array_equal(conj.p, dense)
        assert np.array_equal(conj.rows, Conjugation(dense).rows)

    def test_conjugation_is_involution_on_random_vectors(self):
        rng = np.random.default_rng(1)
        # a nontrivial symmetric unitary
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        p = q @ q.T
        conj = Conjugation(p)
        for _ in range(10):
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            assert np.linalg.norm(conj.apply(conj.apply(x)) - x) < 1e-10 * np.linalg.norm(x)


class TestRealDoubling:
    def test_real_symmetric_input_gives_block_diag(self):
        b = np.array([[1.0, 2.0], [2.0, -3.0]])
        s = real_doubling(ComplexSymmetricMatrix(b))
        assert np.array_equal(s[:2, :2], b)
        assert np.array_equal(s[2:, 2:], -b)
        assert not s[:2, 2:].any()
        evs = np.sort(np.linalg.eigvalsh(s))
        eb = np.linalg.eigvalsh(b)
        assert np.allclose(np.sort(np.concatenate([eb, -eb])), evs, atol=1e-12)

    def test_zero_matrix(self):
        s = real_doubling(ComplexSymmetricMatrix(np.zeros((3, 3))))
        assert not s.any()

    def test_spectrum_pairs_and_matches_svd(self):
        rng = np.random.default_rng(2)
        a = ComplexSymmetricMatrix(random_complex_symmetric(8, rng))
        s = real_doubling(a)
        assert np.array_equal(s, s.T)
        evs = np.sort(np.linalg.eigvalsh(s))
        assert np.max(np.abs(evs + evs[::-1])) < 1e-10 * a.norm
        sv = np.linalg.svd(a.matrix, compute_uv=False)
        assert np.allclose(evs[8:], np.sort(sv), atol=1e-10 * a.norm)


class TestAntilinearSpectrum:
    def test_1x1_imaginary(self):
        spec = antilinear_spectrum(ComplexSymmetricMatrix([[1j]]))
        assert spec.lambdas == pytest.approx([1.0])
        u = spec.vectors[:, 0]
        assert abs(np.abs(u[0]) - 1.0) < 1e-14
        assert np.linalg.norm(1j * u - np.conj(u)) < 1e-14

    def test_real_diagonal(self):
        spec = antilinear_spectrum(ComplexSymmetricMatrix(np.diag([3.0, 1.0])))
        assert spec.lambdas == pytest.approx([1.0, 3.0])
        assert np.allclose(np.abs(spec.vectors), [[0, 1], [1, 0]], atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_shifted_matches_svd(self, seed):
        rng = np.random.default_rng(seed)
        a = ComplexSymmetricMatrix(random_complex_symmetric(20, rng))
        z = 0.3 + 0.1j
        spec = antilinear_spectrum(a, None, z)
        sv = np.sort(np.linalg.svd(a.matrix - z * np.eye(20), compute_uv=False))
        assert np.max(np.abs(spec.lambdas - sv)) < 1e-10 * a.norm

    def test_eigen_equation_and_orthonormality(self):
        rng = np.random.default_rng(3)
        a = ComplexSymmetricMatrix(random_complex_symmetric(15, rng))
        conj = Conjugation(np.eye(15))
        z = 0.2 - 0.4j
        spec = antilinear_spectrum(a, conj, z)
        shifted = a.matrix - z * np.eye(15)
        for k in range(15):
            u = spec.vectors[:, k]
            res = np.linalg.norm(shifted @ u - spec.lambdas[k] * conj.apply(u))
            assert res < 1e-9 * a.norm
        gram = spec.vectors.conj().T @ spec.vectors
        assert np.max(np.abs(gram - np.eye(15))) < 1e-9

    def test_orthonormal_under_degeneracy(self):
        # doubly degenerate singular values and a zero cluster
        for mat in (np.array([[0, 1], [1, 0]], dtype=complex),
                    np.diag([2.0, 2.0, 0.0, 0.0]).astype(complex),
                    np.zeros((4, 4), dtype=complex)):
            a = ComplexSymmetricMatrix(mat)
            spec = antilinear_spectrum(a)
            gram = spec.vectors.conj().T @ spec.vectors
            assert np.max(np.abs(gram - np.eye(mat.shape[0]))) < 1e-9
            for k in range(mat.shape[0]):
                u = spec.vectors[:, k]
                res = np.linalg.norm(mat @ u - spec.lambdas[k] * np.conj(u))
                assert res < 1e-9 * max(a.norm, 1e-14)

    def test_inconsistent_pair_raises(self):
        p = Conjugation(np.diag([1.0, -1.0]))
        a = ComplexSymmetricMatrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NotCSymmetricError):
            antilinear_spectrum(a, p)

    def test_general_conjugation_reduction(self):
        # swap-conjugation problem solved both directly and via reduction
        rng = np.random.default_rng(4)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        emb, conj = block_embed(m)
        spec = antilinear_spectrum(emb, conj)
        sv = np.linalg.svd(m, compute_uv=False)
        expect = np.sort(np.concatenate([sv, sv]))
        assert np.max(np.abs(spec.lambdas - expect)) < 1e-10 * np.linalg.norm(emb, 2)

    def test_block_embed_clusters(self):
        # every singular value of M - z is a cluster of two in the embedding,
        # at z = 0 and at a shift, where the cluster scale is ||M - z||
        rng = np.random.default_rng(14)
        m = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        emb, conj = block_embed(m)
        for z in (0.0, 0.7 - 0.4j):
            spec = antilinear_spectrum(emb, conj, z)
            sv = np.sort(np.linalg.svd(m - z * np.eye(40), compute_uv=False))
            tol = 1e-12 * sv[-1]
            assert spec.degenerate
            assert np.max(np.abs(spec.lambdas[0::2] - sv)) <= tol
            assert np.max(np.abs(spec.lambdas[1::2] - sv)) <= tol
            assert np.max(np.abs(spec.vectors.conj().T @ spec.vectors - np.eye(80))) <= 1e-12
            resid = (emb - z * np.eye(80)) @ spec.vectors - spec.lambdas * (conj.p @ np.conj(spec.vectors))
            assert np.max(np.linalg.norm(resid, axis=0)) <= tol

    @settings(max_examples=100, deadline=None)
    @given(sigma=st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=1, max_size=10),
           seed=st.integers(0, 2**32 - 1))
    def test_clusters_of_any_multiplicity(self, sigma, seed):
        # A = U diag(sigma) U^T with repeats: positive clusters come straight
        # from eigh, and a zero cluster of any size gets its basis from one SVD
        n = len(sigma)
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        a = (u * sigma) @ u.T
        top = max(max(sigma), 1.0)
        repeat = len(set(sigma)) < n
        spec = antilinear_spectrum(a)
        assert np.max(np.abs(spec.lambdas - np.sort(sigma))) <= 1e-10 * top
        assert np.max(np.abs(spec.vectors.conj().T @ spec.vectors - np.eye(n))) <= 1e-9
        resid = a @ spec.vectors - spec.lambdas * np.conj(spec.vectors)
        assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-9 * max(max(sigma), 1e-14)
        assert spec.degenerate == repeat
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fac = takagi(a)
        assert any(issubclass(w.category, DegenerateClusterWarning) for w in caught) == repeat
        assert np.linalg.norm((fac.u * fac.sigma) @ fac.u.T - a) <= 1e-10 * top


@st.composite
def _involutions(draw):
    """(Conjugation, rows) for an involutive permutation of n <= 12 points, identity and swap included."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["identity", "swap", "pairs"]))
    rows = np.arange(n)
    if kind == "identity":
        return Conjugation(np.eye(n)), rows
    if kind == "swap":
        m = max(n // 2, 1)
        return Conjugation.swap(m), np.concatenate([np.arange(m, 2 * m), np.arange(m)])
    order = draw(st.permutations(range(n)))
    for k in range(draw(st.integers(0, n // 2))):
        i, j = order[2 * k], order[2 * k + 1]
        rows[i], rows[j] = j, i
    return Conjugation(np.eye(n)[rows]), rows


class TestPermutationConjugation:
    @settings(max_examples=100, deadline=None)
    @given(case=_involutions(), seed=st.integers(0, 2**32 - 1), z=st.complex_numbers(max_magnitude=3.0))
    def test_gather_is_the_product(self, case, seed, z):
        conj, rows = case
        n = rows.size
        assert np.array_equal(conj.rows, rows)
        # A = P S with S symmetric is C-symmetric: conj(P) @ (A - z I) = S - z P
        a = conj.p @ random_complex_symmetric(n, np.random.default_rng(seed))
        _, reduced = _reduced(a, conj, z)
        assert np.array_equal(reduced, np.conj(conj.p) @ (a - z * np.eye(n)))
        spec = antilinear_spectrum(a, conj, z)
        sv = np.sort(np.linalg.svd(a - z * np.eye(n), compute_uv=False))
        assert np.max(np.abs(spec.lambdas - sv)) <= 1e-10 * np.linalg.norm(a, 2)

    @pytest.mark.parametrize("z", [0.0, 2.0 + 1.0j])
    def test_spectrum_needs_no_svd(self, monkeypatch, z):
        # the largest lambda, ||A - z||, is the cluster scale: no SVD of A
        # runs.  The embedding's spectrum is one SVD of its 20 x 20 block
        # M - z, and neither an SVD of the 40 x 40 embedding nor an eigh
        rng = np.random.default_rng(19)
        a = random_complex_symmetric(30, rng)
        m = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        cases = [(a, None, None), (*block_embed(m), (20, 20))]
        expected = [np.sort(np.linalg.svd(x - z * np.eye(x.shape[0]), compute_uv=False)) for x, _, _ in cases]
        svd, eigh = scipy.linalg.svd, scipy.linalg.eigh
        specs = []
        for x, conj, block in cases:
            shapes = []

            def svd_spy(arr, *args, **kwargs):
                shapes.append(np.shape(arr))
                if np.shape(arr) != block:
                    raise AssertionError(f"SVD of a {np.shape(arr)} array called")
                return svd(arr, *args, **kwargs)

            def eigh_spy(*args, **kwargs):
                if block is not None:
                    raise AssertionError("eigh called on the embedding")
                return eigh(*args, **kwargs)

            with monkeypatch.context() as patch:
                # np.linalg.norm(x, 2) reaches svd through its own module's globals
                patch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", svd_spy)
                patch.setattr(np.linalg, "svd", svd_spy)
                patch.setattr(scipy.linalg, "svd", svd_spy)
                patch.setattr(scipy.linalg, "eigh", eigh_spy)
                specs.append(antilinear_spectrum(x, conj, z))
            assert shapes == ([] if block is None else [block])
        for spec, sv in zip(specs, expected):
            assert np.max(np.abs(spec.lambdas - sv)) <= 1e-13 * sv[-1]


class TestTakagi:
    def test_diagonal(self):
        fac = takagi(ComplexSymmetricMatrix(np.diag([2.0, 1.0])))
        assert fac.sigma == pytest.approx([2.0, 1.0])
        assert np.allclose(np.abs(fac.u), np.eye(2), atol=1e-14)

    def test_permutation_warns_degenerate(self):
        with pytest.warns(DegenerateClusterWarning):
            fac = takagi(ComplexSymmetricMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert fac.sigma == pytest.approx([1.0, 1.0])

    def test_degenerate_and_rank_deficient_reconstruction(self):
        rng = np.random.default_rng(15)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        a = (q * [3.0, 3.0, 1.0, 0.0, 0.0]) @ q.T
        with pytest.warns(DegenerateClusterWarning):
            fac = takagi(a)
        assert np.max(np.abs(fac.sigma - [3.0, 3.0, 1.0, 0.0, 0.0])) <= 1e-12
        assert np.linalg.norm((fac.u * fac.sigma) @ fac.u.T - a) <= 1e-10
        assert np.max(np.abs(fac.u.conj().T @ fac.u - np.eye(5))) <= 1e-12

    @pytest.mark.parametrize("n", [2, 10, 50, 200])
    def test_reconstruction_random(self, n):
        rng = np.random.default_rng(n)
        a = ComplexSymmetricMatrix(random_complex_symmetric(n, rng))
        fac = takagi(a)
        recon = fac.u @ np.diag(fac.sigma) @ fac.u.T
        assert np.linalg.norm(recon - a.matrix) < 1e-9 * a.norm
        assert np.max(np.abs(fac.u.conj().T @ fac.u - np.eye(n))) < 1e-10
        sv = np.sort(np.linalg.svd(a.matrix, compute_uv=False))[::-1]
        assert np.max(np.abs(fac.sigma - sv)) < 1e-10 * a.norm


@st.composite
def _dense_cases(draw, embed):
    """(A, conjugation, M, z) with ||(A - z)^-1|| = ||(M - z)^-1||, n <= 40.

    M has the drawn singular values s, repeats included and up to two of
    them 0, 1e-13 or 1e-6: complex symmetric U diag(s) U^T (A = M, plain
    conjugation) or, for embed, a general U diag(s) V^* inside
    block_embed(M).  z is 0, so a zero in s is a singular shift, or a drawn
    point.
    """
    n = draw(st.integers(1, 40))
    s = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 1.0 + 1e-10, 2.0, 50.0]), min_size=n, max_size=n)))
    s[:draw(st.integers(0, 2))] = draw(st.sampled_from([0.0, 1e-13, 1e-6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def unitary():
        return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]

    z = draw(st.one_of(st.just(0j), st.complex_numbers(max_magnitude=3.0)))
    u = unitary()
    if not embed:
        m = (u * s) @ u.T
        m = 0.5 * (m + m.T)
        return m, None, m, z
    m = (u * s) @ unitary().conj().T
    return (*block_embed(m), m, z)


class TestResolventNorm:
    def test_embedding_factors_the_block_once(self, monkeypatch):
        # resolvent_norm(*block_embed(M), z) runs one ?getrf, on the n x n
        # X = M - z, not on the 2n x 2n A'
        shapes = []

        def wrap(name, routine):
            if name != "getrf":
                return routine

            def getrf(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return routine(a, *args, **kwargs)
            return getrf

        rng = np.random.default_rng(21)
        m = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        z = 0.3 - 0.2j
        patch_lapack(monkeypatch, wrap)
        norm = resolvent_norm(*block_embed(m), z)
        assert shapes == [(30, 30)]
        assert norm == pytest.approx(1.0 / np.linalg.svd(m - z * np.eye(30), compute_uv=False)[-1], rel=1e-12)

    def test_diagonal_cases(self):
        a = ComplexSymmetricMatrix(np.diag([1.0, 2.0]))
        assert resolvent_norm(a) == pytest.approx(1.0)

    def test_selfadjoint_distance(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((8, 8))
        a = ComplexSymmetricMatrix(0.5 * (b + b.T))
        evs = np.linalg.eigvalsh(a.matrix)
        z = evs.max() + 0.7
        assert resolvent_norm(a, None, z) == pytest.approx(1.0 / np.min(np.abs(evs - z)), rel=1e-9)

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(6)
        a = ComplexSymmetricMatrix(random_complex_symmetric(15, rng))
        z = 2.0j
        direct = np.linalg.norm(np.linalg.inv(a.matrix - z * np.eye(15)), 2)
        assert resolvent_norm(a, None, z) == pytest.approx(direct, rel=1e-9)

    def test_norm_times_distance_lower_bound(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            a = ComplexSymmetricMatrix(random_complex_symmetric(10, np.random.default_rng(seed)))
            evs = np.linalg.eigvals(a.matrix)
            z = 1.5 + 1.5j
            dist = np.min(np.abs(evs - z))
            if dist < 1e-6:
                continue
            assert resolvent_norm(a, None, z) * dist >= 1.0 - 1e-9

    def test_singular_shift(self):
        a = ComplexSymmetricMatrix(np.diag([1.0, 2.0]))
        with pytest.raises(SingularShiftError):
            resolvent_norm(a, None, 1.0)

    def test_singular_threshold_uses_exact_norm(self):
        # diag(1, 1, 1, 1, s): ||A|| = 1 while ||A||_F is about 2, so a sigma_min
        # of 1.5e-13 lies between the thresholds of ||A||_F / sqrt(5) and ||A||_F
        def case(s):
            return np.diag([1.0, 1.0, 1.0, 1.0, s]).astype(complex)

        assert resolvent_norm(case(1.5e-13)) == pytest.approx(1.0 / 1.5e-13, rel=1e-6)
        with pytest.raises(SingularShiftError):
            resolvent_norm(case(0.5e-13))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), embed=st.booleans(),
           z=st.complex_numbers(max_magnitude=3.0))
    def test_equals_inverse_sigma_min(self, n, seed, embed, z):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if embed:
            a, conj = block_embed(m)  # ||(diag(M, M^T) - z)^-1|| under the swap is ||(M - z)^-1||
        else:
            m = a = 0.5 * (m + m.T)
            conj = None
        sv = np.linalg.svd(m - z * np.eye(n), compute_uv=False)
        # both sides lose about eps * cond, so keep the condition number modest
        assume(sv[-1] > 1e-3 * sv[0])
        assert resolvent_norm(a, conj, z) == pytest.approx(1.0 / sv[-1], rel=1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=st.one_of(_dense_cases(False), _dense_cases(True)))
    def test_lanczos_is_dense_sigma_min(self, case):
        # the dense kinds beside the banded property of test_schrodinger.py:
        # clustered, rank-deficient and exactly singular draws are kept, so
        # the Lanczos value must be the smallest singular value, not a larger one
        a, conj, m, z = case
        sv = np.linalg.svd(m - z * np.eye(m.shape[0]), compute_uv=False)
        scale = max(sv[0], 1.0)
        if sv[-1] > 1e-12 * scale:
            assert abs(1.0 / resolvent_norm(a, conj, z) - sv[-1]) <= 1e-12 * scale
        elif sv[-1] <= 1e-15 * scale:
            with pytest.raises(SingularShiftError):
                resolvent_norm(a, conj, z)

    def test_exactly_singular_shift_raises_from_factorisation(self):
        a = ComplexSymmetricMatrix(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(SingularShiftError, match="zero pivot 2"):
            resolvent_norm(a, None, 2.0)
        with pytest.raises(SingularShiftError, match="zero pivot 2"):
            _dense_lu(np.diag([-1.0, 0.0, 1.0]).astype(complex))

    def test_tiny_pivot_raises_from_solve(self):
        # a 1e-160 pivot factors, but its solve exceeds 1 / sqrt(tiny)
        a = np.diag([1.0, 1e-160]).astype(complex)
        solve = _dense_lu(a.copy())
        with pytest.raises(SingularShiftError, match="working precision"):
            solve(np.ones(2, dtype=complex))
        with pytest.raises(SingularShiftError, match="working precision"):
            resolvent_norm(a)

    @pytest.mark.parametrize("z", [np.nan, np.inf])
    def test_nonfinite_shift_is_refused(self, z):
        # a nan shift is not a singular shift, and inf is not a Lanczos failure
        with pytest.raises(PreconditionError, match="must be finite") as info:
            resolvent_norm(np.eye(3), None, z)
        assert not isinstance(info.value, SingularShiftError)

    def test_lanczos_step_cap_raises(self, monkeypatch):
        # singular values evenly spread over [1, 2]: one Lanczos restart is not enough
        rng = np.random.default_rng(16)
        q, _ = np.linalg.qr(rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60)))
        a = (q * np.linspace(1.0, 2.0, 60)) @ q.T
        assert resolvent_norm(a) == pytest.approx(1.0, rel=1e-12)
        monkeypatch.setattr(antilinear, "LANCZOS_MAXITER", 1)
        with pytest.raises(ConvergenceError):
            resolvent_norm(a)

def _identity_solve(via, n, dtype):
    """The solve that returns its right-hand side unchanged: _check_solve alone, or an identity's _band_lu or _dense_lu."""
    if via == "direct":
        return lambda x: _check_solve(x, "singular to working precision")
    if via == "band":
        return _band_lu(Tridiagonal(sub=np.zeros(n - 1), main=np.ones(n, dtype), sup=np.zeros(n - 1)), 0.0)
    return _dense_lu(np.eye(n, dtype=dtype))


# the solves csop makes: vectors everywhere, n x k blocks through _band_lu (bq_norm, the kernel scan)
_VIAS = [(via, cols) for via in ("direct", "band", "dense") for cols in ((), (3,)) if not (via == "dense" and cols)]

# an entry's magnitude near the bound: even one at rounding distance over it raises
_NEAR = st.sampled_from([0.0, 1.0, 0.5 * SOLVE_MAX, 0.6 * SOLVE_MAX, 0.9 * SOLVE_MAX, np.nextafter(SOLVE_MAX, 0),
                         SOLVE_MAX, np.nextafter(SOLVE_MAX, np.inf), 2.0 * SOLVE_MAX, np.inf, np.nan])
_ENTRIES = st.one_of(_NEAR, _NEAR.map(np.negative), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _solutions(draw):
    """A real or complex vector or n x k block of entries near SOLVE_MAX, inf and NaN among them."""
    shape = draw(st.sampled_from([(1,), (4,), (40,), (4, 1), (6, 3)]))
    x = draw(arrays(float, shape, elements=_ENTRIES))
    if draw(st.booleans()):
        x = x.astype(complex)
        x.imag = draw(arrays(float, shape, elements=_ENTRIES))  # not x + 1j * y, which makes 1j * inf NaN
    return x


class TestCheckSolve:
    # SOLVE_MAX = tiny^-1/2 is the largest solve whose square cannot overflow:
    # an entry of a shifted solve at or above it means a singular shift

    @pytest.mark.parametrize("via, cols", _VIAS)
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("entry, raises", [(np.nextafter(SOLVE_MAX, 0), False), (SOLVE_MAX, True),
                                               (np.inf, True), (np.nan, True)])
    def test_bound(self, via, cols, dtype, entry, raises):
        n = 5
        x = np.ones((n,) + cols, dtype)
        x[-1] = entry * (1j if dtype is complex else 1.0)  # |x[-1]| = entry exactly
        solve = _identity_solve(via, n, dtype)
        if raises:
            with pytest.raises(SingularShiftError, match="working precision"):
                solve(x)
        else:
            assert np.array_equal(solve(x), x)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(x=_solutions())
    @example(x=np.full(10, 0.9 * SOLVE_MAX))  # sum |x_i|^2 overflows, every entry below the bound
    @example(x=np.full(10, 0.9 * SOLVE_MAX) * (1.0 + 1.0j))  # each part below, every |x_i| above
    @example(x=np.array([0.6 * SOLVE_MAX, 1.0]))  # sum |x_i|^2 above SOLVE_MAX^2 / 4, every entry below
    def test_raises_exactly_when_an_entry_is_not_below_the_bound(self, x):
        if not np.abs(x).max() < SOLVE_MAX:
            with pytest.raises(SingularShiftError, match="singular"):
                _check_solve(x, "singular")
        else:
            assert _check_solve(x, "singular") is x


def _diagonal(d):
    """(solve, calls) for X = diag(d): solve(v) = X^-1 v (= X^-T v), and a one-item list counting the solves."""
    calls = [0]

    def solve(v):
        calls[0] += 1
        return v / d

    return solve, calls


class TestLanczos:
    # _lanczos on explicit diagonal X, whose sigma_min = min |d| is known

    def test_smallest_magnitude_and_unit_ritz_vector(self):
        rng = np.random.default_rng(3)
        d = rng.choice([-1.0, 1.0], 200) * rng.uniform(1.0, 10.0, 200)
        solve = _diagonal(d)[0]
        sigma, w = _lanczos(solve, solve, d.size, "diag")
        k = np.argmin(np.abs(d))
        assert sigma == pytest.approx(abs(d[k]), rel=1e-14)
        assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-14)
        assert abs(w[k]) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("d", [[2.5], [-3.0, 0.5], [1.0, -2.0, 4.0]])
    def test_exact_below_ncv(self, d):
        # n < NCV: at the latest the basis spans R^n and the Ritz pair is exact
        d = np.array(d)
        solve = _diagonal(d)[0]
        sigma, w = _lanczos(solve, solve, d.size, "diag")
        k = np.argmin(np.abs(d))
        assert sigma == pytest.approx(abs(d[k]), rel=1e-15)
        assert abs(w[k]) == pytest.approx(1.0, rel=1e-15)

    def test_converges_past_restarts(self):
        # |d| evenly spread over [1, 2]: many more steps than NCV, two solves each;
        # n > _RESTART_COLUMNS, so each restart forms its Ritz vectors in two blocks
        d = np.concatenate([np.linspace(1.0, 2.0, 300), np.full(4800, 2.0)]) * np.resize([1.0, -1.0], 5100)
        assert d.size > antilinear._RESTART_COLUMNS
        solve, calls = _diagonal(d)
        sigma, w = _lanczos(solve, solve, d.size, "diag")
        assert calls[0] // 2 > 2 * NCV  # steps
        assert sigma == pytest.approx(1.0, rel=1e-14)
        assert abs(w[0]) == pytest.approx(1.0, rel=1e-14)

    def test_step_cap_names_the_problem(self, monkeypatch):
        d = np.linspace(1.0, 2.0, 300) * np.resize([1.0, -1.0], 300)
        monkeypatch.setattr(antilinear, "LANCZOS_MAXITER", 1)
        solve = _diagonal(d)[0]
        with pytest.raises(ConvergenceError, match="Lanczos for spread diagonal"):
            _lanczos(solve, solve, d.size, "spread diagonal")


def _peak_units(f, size):
    """tracemalloc peak of f() above the memory in use before it, in units of size^2 * 8 bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f()
        return (tracemalloc.get_traced_memory()[1] - before) / (size * size * 8)
    finally:
        tracemalloc.stop()


class TestMemory:
    # the units are the 2n x 2n real doubling, N = 600 for n = 300

    def test_spectrum_peak(self):
        # the doubling, overwritten in place by eigh (1), plus the
        # divide-and-conquer workspace of 1 + 6N + 2N^2 doubles (2)
        a = random_complex_symmetric(300, np.random.default_rng(17))
        assert _peak_units(lambda: antilinear_spectrum(a), 600) <= 3.25

    def test_embedding_spectrum_peak(self):
        # diag(M, M^T) for n = 150 has the same N = 600 units, but forms
        # neither the doubling nor A': the n x n block X = M - z (0.125),
        # overwritten by its SVD and freed before the 2n x 2n vectors (0.5)
        # are filled from u and vh (0.25); _fix_sign reads |u| a block of
        # columns at a time, below that; measured 0.804 (1.300 with A')
        rng = np.random.default_rng(17)
        emb, conj = block_embed(rng.standard_normal((150, 150)) + 1j * rng.standard_normal((150, 150)))
        assert _peak_units(lambda: antilinear_spectrum(emb, conj), 600) <= 0.845

    def test_embedding_resolvent_norm_peak(self):
        # the two off-diagonal blocks of A', gathered for the symmetry test
        # (0.25), then X alone, factored in place; measured 0.304 (0.577
        # with A' and its 2n LU)
        rng = np.random.default_rng(17)
        emb, conj = block_embed(rng.standard_normal((150, 150)) + 1j * rng.standard_normal((150, 150)))
        assert _peak_units(lambda: resolvent_norm(emb, conj, 0.5j), 600) <= 0.32

    def test_resolvent_norm_peak(self):
        # A - z, its symmetrised copy (factored in place) and the transients
        # of that symmetrisation; no doubling is formed
        a = random_complex_symmetric(300, np.random.default_rng(18))
        assert _peak_units(lambda: resolvent_norm(a, None, 0.5j), 600) <= 1.5

    # in units of P's bytes, 2 x (600^2 * 8): a permutation P is checked and
    # applied without products, differences or symmetrised copies

    def test_swap_peak(self):
        # O(n): the swap records its 2n rows, not the real 0/1 P (0.5) and
        # its complex copy (1); measured 30 bytes per row
        assert _peak_units(lambda: Conjugation.swap(300), 1) <= 64 * 600

    def test_reduced_permutation_peak(self):
        # the embedding's A' is bipartite: its two off-diagonal blocks are
        # gathered through rows (0.5) and the bool array of the exact symmetry
        # test, never A' whole (1); measured 0.538 (1.084 with A')
        rng = np.random.default_rng(20)
        args = block_embed(rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300)))
        _, x = _reduced(*args, 0.0)
        assert x.shape == (300, 300) and x.flags.f_contiguous
        assert _peak_units(lambda: _reduced(*args, 0.0), 600) / 2 <= 0.565


class TestBlockEmbed:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 16), rank=st.integers(0, 16), jordan=st.booleans(),
           z=st.sampled_from([0.0, 0.3 - 0.7j]), seed=st.integers(0, 2**32 - 1))
    def test_svd_path_matches_eigh_path(self, n, rank, jordan, z, seed):
        # A' = [[0, X^T], [X, 0]] for X = M - z takes the SVD path; the real
        # orthogonal congruence Q^T A' Q has the same antilinear spectrum but
        # nonzero diagonal blocks, so it takes the eigh path.  X is the
        # nilpotent Jordan block, or random of rank min(rank, n) >= 1
        rng = np.random.default_rng(seed)
        if jordan and n > 1:
            x = np.eye(n, k=1)
        else:
            r = min(max(rank, 1), n)
            x = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))) @ (
                rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n)))
        emb, conj = block_embed(x + z * np.eye(n))
        _, block = _reduced(emb, conj, z)
        assert block.shape == (n, n)
        zero = np.zeros((n, n))
        reduced = np.block([[zero, block.T], [block, zero]])
        q, _ = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
        mixed = q.T @ reduced @ q
        mixed = 0.5 * (mixed + mixed.T)
        assert mixed[:n, :n].any()
        svd_path = antilinear_spectrum(emb, conj, z).lambdas
        eigh_path = antilinear_spectrum(mixed).lambdas
        tol = 64 * np.finfo(float).eps * np.linalg.norm(x, 2)  # largest ratio seen over 3000 draws: 16.6
        assert np.max(np.abs(svd_path - eigh_path)) <= tol

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 16), z=st.sampled_from([0.0, 0.3 - 0.7j]), frac=st.floats(0.0, 0.9),
           seed=st.integers(0, 2**32 - 1))
    def test_asymmetric_swap_input(self, n, z, frac, seed):
        # the M^T block carries an asymmetry E of frac * SYMMETRY_RTOL * ||A||:
        # the bipartite path symmetrizes X bitwise as 0.5 * (A' + A'^T) and
        # matches the eigh path; twice the threshold is refused
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        emb, conj = block_embed(m)
        e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        e *= SYMMETRY_RTOL * np.linalg.norm(m, 2) / np.max(np.abs(e))
        within, above = emb.copy(), emb.copy()
        within[n:, n:] += frac * e
        above[n:, n:] += 2.0 * e
        _, x = _reduced(within, conj, z)
        full = (within - z * np.eye(2 * n))[conj.rows]
        assert np.array_equal(x, 0.5 * (full + full.T)[n:, :n])
        q, _ = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
        zero = np.zeros((n, n))
        mixed = q.T @ np.block([[zero, x.T], [x, zero]]) @ q
        eigh_path = antilinear_spectrum(0.5 * (mixed + mixed.T)).lambdas
        svd_path = antilinear_spectrum(within, conj, z).lambdas
        assert np.max(np.abs(svd_path - eigh_path)) <= 64 * np.finfo(float).eps * np.linalg.norm(x, 2)
        with pytest.raises(NotCSymmetricError):
            antilinear_spectrum(above, conj, z)

    def test_nilpotent_jordan(self):
        emb, conj = block_embed(np.array([[0.0, 1.0], [0.0, 0.0]]))
        spec = antilinear_spectrum(emb, conj)
        assert np.allclose(spec.lambdas, [0.0, 0.0, 1.0, 1.0], atol=1e-12)

    def test_symmetric_input_consistency(self):
        rng = np.random.default_rng(8)
        a = random_complex_symmetric(6, rng)
        direct = antilinear_spectrum(ComplexSymmetricMatrix(a)).lambdas
        emb, conj = block_embed(a)
        embedded = antilinear_spectrum(emb, conj).lambdas
        assert np.allclose(np.sort(embedded), np.sort(np.concatenate([direct, direct])), atol=1e-10 * np.linalg.norm(a, 2))

    def test_min_lambda_is_sigma_min(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        emb, conj = block_embed(m)
        spec = antilinear_spectrum(emb, conj)
        sv = np.linalg.svd(m, compute_uv=False)
        assert abs(spec.lambdas[0] - sv.min()) < 1e-10 * np.linalg.norm(m, 2)


class TestMinmax:
    def test_diagonal_and_identity(self):
        assert minmax_norm(ComplexSymmetricMatrix(np.diag([2.0, 1.0]))) == pytest.approx(2.0)
        assert minmax_norm(ComplexSymmetricMatrix(np.eye(3))) == pytest.approx(1.0)

    def test_antidiagonal_imaginary(self):
        a = ComplexSymmetricMatrix([[0.0, 1j], [1j, 0.0]])
        val = minmax_norm(a)
        assert val == pytest.approx(1.0, abs=1e-12)
        # no random unit vector exceeds it
        rng = np.random.default_rng(10)
        for _ in range(500):
            u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            u /= np.linalg.norm(u)
            assert (u @ a.matrix @ u).real <= val + 1e-9

    def test_equals_spectral_norm_random(self):
        rng = np.random.default_rng(11)
        a = ComplexSymmetricMatrix(random_complex_symmetric(12, rng))
        assert minmax_norm(a) == pytest.approx(a.norm, rel=1e-11)

    @pytest.mark.parametrize("call", [minmax_norm, lambda a: minmax_even_lower_check(a, 1, 3)],
                             ids=["minmax_norm", "minmax_even_lower_check"])
    def test_not_symmetric_raises(self, call):
        # the doubling of a non-symmetric array is not the form Re(u^T A u),
        # and its top eigenvalue is neither ||A|| nor ||(A + A^T)/2||: refuse
        # the array, as antilinear_spectrum, takagi and resolvent_norm do
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        with pytest.raises(NotCSymmetricError):
            call(a)

    def test_even_lower_check_diag(self):
        a = ComplexSymmetricMatrix(np.diag([3.0, 2.0, 1.0]))
        assert minmax_even_lower_check(a, 1, 25, seed=0)

    def test_even_lower_check_codim_zero(self):
        # with no functionals the sampled subspace is the whole space, and
        # the compressed maximum is ||A|| = lambda_0 itself
        rng = np.random.default_rng(13)
        a = ComplexSymmetricMatrix(random_complex_symmetric(8, rng))
        assert minmax_even_lower_check(a, 0, 3, seed=0)

    def test_even_lower_check_random(self):
        rng = np.random.default_rng(12)
        a = ComplexSymmetricMatrix(random_complex_symmetric(8, rng))
        assert minmax_even_lower_check(a, 1, 200, seed=1)
        assert minmax_even_lower_check(a, 3, 50, seed=2)

    def test_index_out_of_range(self):
        a = ComplexSymmetricMatrix(np.eye(4))
        with pytest.raises(IndexOutOfRangeError):
            minmax_even_lower_check(a, 2, 5)
