import numpy as np
import pytest

from csop.antilinear import (
    ComplexSymmetricMatrix,
    Conjugation,
    antilinear_spectrum,
    block_embed,
    minmax_even_lower_check,
    minmax_norm,
    real_doubling,
    resolvent_norm,
    takagi,
)
from csop.errors import (
    DegenerateClusterWarning,
    IndexOutOfRangeError,
    NotCSymmetricError,
    SingularShiftError,
)
from conftest import random_complex_symmetric


class TestTypes:
    def test_constructor_symmetrizes_exactly(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = ComplexSymmetricMatrix(a)
        assert np.array_equal(m.matrix, m.matrix.T)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ComplexSymmetricMatrix([[np.inf, 0], [0, 1]])

    def test_conjugation_validation(self):
        with pytest.raises(ValueError):
            Conjugation([[0, 1], [0.5, 0]])  # not symmetric
        with pytest.raises(ValueError):
            Conjugation([[2, 0], [0, 2]])  # not unitary

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
        conj = Conjugation.identity(15)
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
        assert np.max(np.abs(spec.lambdas - expect)) < 1e-10 * emb.norm


class TestTakagi:
    def test_diagonal(self):
        fac = takagi(ComplexSymmetricMatrix(np.diag([2.0, 1.0])))
        assert fac.sigma == pytest.approx([2.0, 1.0])
        assert np.allclose(np.abs(fac.u), np.eye(2), atol=1e-14)

    def test_permutation_warns_degenerate(self):
        with pytest.warns(DegenerateClusterWarning):
            fac = takagi(ComplexSymmetricMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert fac.sigma == pytest.approx([1.0, 1.0])

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


class TestResolventNorm:
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


class TestBlockEmbed:
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

    def test_not_symmetric_raises(self):
        # the doubling of a non-symmetric array is not the form Re(u^T A u),
        # and its top eigenvalue is neither ||A|| nor ||(A + A^T)/2||: refuse
        # the array, as antilinear_spectrum, takagi and resolvent_norm do
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        with pytest.raises(NotCSymmetricError):
            minmax_norm(a)

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
