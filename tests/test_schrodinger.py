import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scipy.linalg

from csop.antilinear import antilinear_spectrum, block_embed, real_doubling
from csop.decay import critical_q, qbar_and_ebar
from csop.errors import (
    BallOutsideDomainError,
    InvalidGapError,
    NegativePotentialError,
    NoGapFoundError,
    ShiftInSpectrumError,
    SingularShiftError,
)
from csop.kronig_penney import KPModel, band_edges, dispersion, exact_decay
from csop.schrodinger import (
    DiscreteHamiltonian,
    GapSpectrum,
    Grid1D,
    PotentialSpec,
    Tridiagonal,
    _band_lu,
    avg_resolvent_kernel,
    boost,
    bq_norm,
    build_hamiltonian,
    find_gap,
    gamma_norm,
    min_lambda,
    projector_decay,
    resolvent_kernel_scan,
)


def diagonal_hamiltonian(values, grid):
    values = np.asarray(values, dtype=float)
    off = np.zeros(values.size - 1)
    return DiscreteHamiltonian(bands=Tridiagonal(sub=off, main=values, sup=off), grid=grid)


# Repeated levels and zeros make clustered and rank-deficient tridiagonals:
# equal diagonal entries split off by zero off-diagonal runs repeat a singular
# value, and a zero block makes it vanish.
LEVEL = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5]), st.floats(-2.0, 2.0))


@st.composite
def tridiagonals(draw, complex_symmetric: bool):
    n = draw(st.integers(2, 9))

    def diagonal(size):
        vals = np.array(draw(st.lists(LEVEL, min_size=size, max_size=size)))
        start = draw(st.integers(0, size))
        vals[start:start + draw(st.integers(0, size))] = 0.0
        if complex_symmetric:
            vals = vals + 1j * np.array(draw(st.lists(LEVEL, min_size=size, max_size=size)))
        return vals

    main, sup = diagonal(n), diagonal(n - 1)
    if complex_symmetric:
        shift = complex(draw(LEVEL), draw(LEVEL))
        return Tridiagonal(sub=sup, main=main, sup=sup), shift
    return Tridiagonal(sub=diagonal(n - 1), main=main, sup=sup), draw(LEVEL)


def interleave(s):
    """s with its two n-blocks of coordinates interleaved as (x_1, y_1, x_2, ...)."""
    n = s.shape[0] // 2
    perm = np.ravel(np.column_stack([np.arange(n), np.arange(n, 2 * n)]))
    return s[np.ix_(perm, perm)]


def upper_band(s, kd=3):
    """LAPACK upper band storage of a symmetric s, as eig_banded takes it."""
    ab = np.zeros((kd + 1, s.shape[0]))
    for d in range(kd + 1):
        ab[kd - d, d:] = np.diagonal(s, d)
    return ab


class TestDoubling:
    @settings(max_examples=100, deadline=None)
    @given(case=st.one_of(tridiagonals(True), tridiagonals(False)))
    @example(case=(
        Tridiagonal(sub=np.array([0.0, 1.13954552e-157, 0, 0, 0, 0, 0]),
                    main=np.array([0.0, 1.0, -1.0, 0, 0, 0, 0, 0]), sup=np.zeros(7)),
        1.0,
    ))
    def test_lambda_equals_sigma(self, case):
        t, shift = case
        n = t.main.size
        sv = np.sort(np.linalg.svd(t.dense(shift), compute_uv=False))
        atol = 1e-12 * max(sv[-1], 1.0)
        # by index, as csop calls it (?sbevx): the all-eigenvalues path (?sbevd,
        # whose ?sterf squares the off-diagonals) returns 2 + 3.8e-10 for the
        # example above, whose coupling squares to a subnormal
        pm = scipy.linalg.eig_banded(
            t.doubling(shift), eigvals_only=True, select="i", select_range=(0, 2 * n - 1)
        )
        assert np.max(np.abs(pm[n:] - sv)) <= atol
        assert np.max(np.abs(pm[:n] + sv[::-1])) <= atol
        if np.iscomplexobj(t.main):
            lam = antilinear_spectrum(t.dense(), None, shift).lambdas
        else:
            # diag(M, M^T) doubles every singular value of M
            lam = antilinear_spectrum(*block_embed(t.dense(shift))).lambdas
            assert np.max(np.abs(lam[0::2] - lam[1::2])) <= atol
            lam = lam[0::2]
        assert np.max(np.abs(lam - sv)) <= atol

    @settings(max_examples=100, deadline=None)
    @given(case=st.one_of(tridiagonals(True), tridiagonals(False)))
    def test_band_is_permuted_dense_doubling_bitwise(self, case):
        t, shift = case
        n = t.main.size
        if np.iscomplexobj(t.main):
            dense = real_doubling(t.dense(shift))
        else:
            emb, conj = block_embed(t.dense(shift))
            # conj(P) @ diag(M, M^T) = [[0, M^T], [M, 0]] is real for real M, and
            # the 4n doubling is that block and its negative
            dense = real_doubling(np.conj(conj.p) @ emb.matrix)[:2 * n, :2 * n]
        s = interleave(dense)
        assert not np.triu(s, 4).any()
        assert np.array_equal(t.doubling(shift), upper_band(s))

    @settings(max_examples=200, deadline=None)
    @given(case=st.one_of(tridiagonals(True), tridiagonals(False)))
    def test_lanczos_min_lambda_is_dense_sigma_min(self, case):
        # a Lanczos Ritz value is only an upper bound on sigma_min: on
        # clustered and rank-deficient draws it must still be the smallest
        # (max(sigma_max, 1) also covers draws of norm below ABS_FLOOR, which
        # the threshold calls singular whatever their condition)
        t, shift = case
        sv = np.sort(np.linalg.svd(t.dense(shift), compute_uv=False))
        scale = max(sv[-1], 1.0)
        if sv[0] > 1e-12 * scale:
            lam, w = min_lambda(t, shift)
            assert abs(lam - sv[0]) <= 1e-12 * scale
            assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)
        elif sv[0] <= 1e-15 * scale:
            with pytest.raises(SingularShiftError):
                min_lambda(t, shift)

    @pytest.mark.parametrize("complex_symmetric", [False, True])
    def test_lanczos_near_double_sigma_min(self, complex_symmetric):
        # two decoupled entries put the two smallest singular values 1e-10
        # apart (relative), ten times the tolerance: a Ritz value left on the
        # larger one fails
        n = 400
        main = np.linspace(0.5, 1.0, n)
        main[[n // 3, 2 * n // 3]] = (0.1, 0.1 * (1.0 + 1e-10))
        sup = np.full(n - 1, 0.01)
        sup[[n // 3 - 1, n // 3, 2 * n // 3 - 1, 2 * n // 3]] = 0.0
        t = Tridiagonal(sub=sup, main=main, sup=sup)
        if complex_symmetric:
            t = Tridiagonal(sub=sup * 1j, main=main * (1.0 + 0.5j), sup=sup * 1j)
        sv = np.sort(np.linalg.svd(t.dense(), compute_uv=False))
        atol = 1e-12 * max(sv[-1], 1.0)
        assert sv[1] - sv[0] > 5.0 * atol
        assert abs(min_lambda(t)[0] - sv[0]) <= atol

    def test_min_lambda_real_main_complex_couplings(self):
        # a real diagonal with complex couplings takes the complex doubling
        t = Tridiagonal(sub=np.array([1j, 0.5j]), main=np.array([1.0, 2.0, 3.0]), sup=np.array([1j, 0.5j]))
        sv = np.linalg.svd(t.dense(0.5), compute_uv=False)
        assert min_lambda(t, 0.5)[0] == pytest.approx(sv[-1], rel=1e-12)

    def test_min_lambda_singular_threshold_uses_exact_norm(self):
        # M = [[1, 0], [1, s]]: ||M|| = sqrt(2) and sigma_min = s / sqrt(2) to
        # first order, while the cheap bound max|main| + max|sub| + max|sup| is 2
        def case(s):
            return Tridiagonal(sub=np.array([1.0]), main=np.array([1.0, s]), sup=np.array([0.0]))

        t = case(2.4e-13)
        sv = np.linalg.svd(t.dense(), compute_uv=False)
        assert 1e-13 * sv[0] < sv[-1] < 1e-13 * 2.0
        assert min_lambda(t)[0] == pytest.approx(sv[-1], rel=1e-6)
        with pytest.raises(SingularShiftError):
            min_lambda(case(1.4e-13))
        with pytest.raises(SingularShiftError):
            min_lambda(Tridiagonal(sub=np.zeros(2), main=np.array([2.0, 1.0, 0.0]), sup=np.zeros(2)))


class TestBandLU:
    @settings(max_examples=100, deadline=None)
    @given(case=st.one_of(tridiagonals(True), tridiagonals(False)), cols=st.sampled_from([(), (3,)]))
    @example(case=(Tridiagonal(sub=np.zeros(0), main=np.array([0.5 + 2.0j]), sup=np.zeros(0)), 1.5j), cols=())
    @example(case=(Tridiagonal(sub=np.zeros(0), main=np.array([-3.0]), sup=np.zeros(0)), 0.5), cols=(3,))
    def test_solve_matches_dense(self, case, cols):
        t, shift = case
        n = t.main.size
        dense = t.dense(shift)
        sv = np.linalg.svd(dense, compute_uv=False)
        scale = max(sv[0], 1.0)
        rng = np.random.default_rng(n)
        b = rng.standard_normal((n,) + cols)
        if np.iscomplexobj(dense):
            b = b + 1j * rng.standard_normal(b.shape)
        try:
            solve = _band_lu(t, shift)
            xs = [solve(b), solve(b, trans=1)]
        except SingularShiftError:
            assert sv[-1] <= 1e-12 * scale  # refused only on a numerically singular draw
            return
        for x, mat in zip(xs, (dense, dense.T)):
            assert x.shape == b.shape
            # partial pivoting is backward stable on every draw, singular ones included
            assert np.max(np.abs(mat @ x - b)) <= 1e-13 * scale * max(np.max(np.abs(x)), 1.0)
            if sv[-1] > 1e-8 * scale:
                ref = np.linalg.solve(mat, b)
                assert np.max(np.abs(x - ref)) <= 1e-12 * (scale / sv[-1]) * np.max(np.abs(ref))

    def test_singular_shift_raises_from_the_factorization(self):
        zero_pivot = Tridiagonal(sub=np.zeros(2), main=np.array([2.0, 1.0, 0.0]), sup=np.zeros(2))
        with pytest.raises(SingularShiftError):
            _band_lu(zero_pivot, 0.0)
        # a finite solve at or above 1 / sqrt(tiny) is singular to working precision
        overflow = Tridiagonal(sub=np.zeros(2), main=np.array([2.0, 1.0, 1e-160]), sup=np.zeros(2))
        solve = _band_lu(overflow, 0.0)
        with pytest.raises(SingularShiftError):
            solve(np.ones(3))


@pytest.fixture(scope="module")
def kp_grid_600():
    grid = Grid1D(length=40.0, n=600)
    pot = PotentialSpec.delta_comb(np.arange(1.0, 40.0), 3.0)
    ham = build_hamiltonian(grid, pot)
    gap = find_gap(ham, energy_ceiling=35.0)
    return ham, gap


class TestBuild:
    def test_free_particle_eigenvalues(self):
        n = 400
        grid = Grid1D(length=math.pi, n=n)
        ham = build_hamiltonian(grid, PotentialSpec.sampled(np.zeros(n)))
        evals = ham.eigenvalues()
        for k in (1, 2, 3):
            assert abs(evals[k - 1] - k**2) < k**4 * grid.h**2 / 6.0

    def test_constant_shift_exact(self):
        n = 50
        grid = Grid1D(length=5.0, n=n)
        h0 = build_hamiltonian(grid, PotentialSpec.sampled(np.zeros(n)))
        hc = build_hamiltonian(grid, PotentialSpec.sampled(np.full(n, 2.5)))
        assert np.allclose(hc.eigenvalues(), h0.eigenvalues() + 2.5, atol=1e-10)

    def test_negative_potential_rejected(self):
        with pytest.raises(NegativePotentialError):
            PotentialSpec.sampled([-1.0, 0.0, 1.0])

    def test_delta_positions_validated(self):
        grid = Grid1D(length=2.0, n=19)
        with pytest.raises(ValueError):
            build_hamiltonian(grid, PotentialSpec.delta_comb([2.5], 1.0))

    def test_kp_band_edges_match_dispersion_oracle(self, kp_grid_2000):
        ham, gap = kp_grid_2000
        edges = band_edges(KPModel(3.0))
        h = ham.grid.h
        # O(h^2) + O(1/L) tolerance, dominated by h^2 E^2 at the upper edge
        tol = 4.0 * h * h * edges.e_plus**2 / 12.0 + 0.5 / ham.grid.length
        assert abs(gap.e_minus - edges.e_minus) < tol
        assert abs(gap.e_plus - edges.e_plus) < tol
        assert abs(gap.e_bottom - edges.e_bottom) < tol
        assert abs(gap.gap - edges.gap) / edges.gap < 0.02


class TestFindGap:
    def test_toy_clustered_diagonal(self):
        grid = Grid1D(length=1.0, n=4)
        ham = diagonal_hamiltonian([1.0, 1.1, 5.0, 5.2], grid)
        gap = find_gap(ham)
        assert gap.e_minus == pytest.approx(1.1)
        assert gap.e_plus == pytest.approx(5.0)
        assert gap.gap == pytest.approx(3.9)
        assert gap.e_bottom == pytest.approx(1.0)

    def test_free_particle_has_no_gap(self):
        n = 300
        grid = Grid1D(length=20.0, n=n)
        ham = build_hamiltonian(grid, PotentialSpec.sampled(np.zeros(n)))
        with pytest.raises(NoGapFoundError):
            find_gap(ham, energy_ceiling=50.0)

    def test_gap_spectrum_invariants(self):
        with pytest.raises(InvalidGapError):
            GapSpectrum(e_minus=2.0, e_plus=1.0)
        with pytest.raises(InvalidGapError):
            GapSpectrum(e_minus=1.0, e_plus=2.0, e_bottom=1.5)


class TestBoost:
    def test_q_zero_identity(self, kp_grid_600):
        ham, _ = kp_grid_600
        assert np.array_equal(boost(ham, 0.0).dense(), ham.bands.dense())

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(0.0, 1e4), min_size=3, max_size=40),
        length=st.floats(0.1, 100.0),
        q=st.floats(-50.0, 50.0),
    )
    def test_transpose_identity_bitwise(self, kp_grid_600, values, length, q):
        ham, _ = kp_grid_600
        sampled = build_hamiltonian(Grid1D(length=length, n=len(values)), PotentialSpec.sampled(values))
        for h in (ham, sampled):
            for qq in (q, 0.1, 0.37, 1.2):
                assert np.array_equal(boost(h, qq).dense().T, boost(h, -qq).dense())

    def test_spectrum_similarity_within_discretization_error(self, kp_grid_600):
        # the discrete boost is similar to H only up to O(q^2 E h^2) on the
        # band energies; check at that scale on the physical window
        ham, _ = kp_grid_600
        q = 0.3
        ev = np.sort(np.linalg.eigvals(boost(ham, q).dense()).real)
        e0 = ham.eigenvalues()
        cut = np.searchsorted(e0, 30.0)
        tol = 1.2 * q * q * 30.0 * ham.grid.h**2 / 2.0 + 1e-10 * np.max(np.abs(e0))
        assert np.max(np.abs(ev[:cut] - e0[:cut])) < tol

    def test_real_spectrum_and_sigma_min_pattern(self, kp_grid_600):
        ham, gap = kp_grid_600
        q = 0.2
        hq = boost(ham, q)
        evals = np.linalg.eigvals(hq.dense())
        assert np.max(np.abs(evals.imag)) < 1e-9 * np.max(np.abs(ham.eigenvalues()))
        _, ebar, _ = qbar_and_ebar(gap)
        smin_q = np.linalg.svd(hq.dense(ebar), compute_uv=False).min()
        smin_0 = np.min(np.abs(ham.eigenvalues() - ebar))
        assert smin_q < smin_0 * (1.0 + 1e-3)


class TestGammaNorm:
    def test_q_zero_selfadjoint(self, kp_grid_600):
        ham, gap = kp_grid_600
        _, ebar, _ = qbar_and_ebar(gap)
        expect = 1.0 / np.min(np.abs(ham.eigenvalues() - ebar))
        assert gamma_norm(ham, 0.0, ebar, gap) == pytest.approx(expect, rel=1e-9)

    def test_matches_svd_oracle(self, kp_grid_600):
        ham, gap = kp_grid_600
        _, ebar, _ = qbar_and_ebar(gap)
        q = 0.5 * critical_q(gap, ebar)
        energy = ebar - q * q
        val = gamma_norm(ham, q, energy, gap)
        smin = np.linalg.svd(
            boost(ham, q).dense(energy), compute_uv=False
        ).min()
        assert val == pytest.approx(1.0 / smin, rel=1e-9)

    def test_bound_chain(self, kp_grid_600):
        # 1/gamma >= min|E_pm - E - q^2| (1 - 2 ||B_q||) whenever positive
        ham, gap = kp_grid_600
        _, ebar, _ = qbar_and_ebar(gap)
        qc = critical_q(gap, ebar)
        evals = ham.eigenvalues()
        for frac in (0.3, 0.6, 0.9):
            q = frac * qc
            energy = ebar - q * q
            gam = gamma_norm(ham, q, energy, gap)
            bq = bq_norm(ham, gap, q, energy)
            lower = np.min(np.abs(evals - ebar)) * (1.0 - 2.0 * bq)
            if lower > 0:
                assert 1.0 / gam >= lower - 1e-8 * np.max(np.abs(evals))

    def test_shift_outside_gap_raises(self, kp_grid_600):
        ham, gap = kp_grid_600
        with pytest.raises(ShiftInSpectrumError):
            gamma_norm(ham, 3.0, gap.e_minus + 0.1, gap)


class TestBqNorm:
    def test_q_zero_vanishes(self, kp_grid_600):
        ham, gap = kp_grid_600
        _, ebar, _ = qbar_and_ebar(gap)
        assert bq_norm(ham, gap, 0.0, ebar) == 0.0

    def test_closed_form_limit_bound(self, kp_grid_600):
        ham, gap = kp_grid_600
        _, ebar, _ = qbar_and_ebar(gap)
        qc = critical_q(gap, ebar)
        q = 0.5 * qc
        energy = ebar - q * q
        computed = bq_norm(ham, gap, q, energy)
        shift = energy + q * q
        bound = q * math.sqrt(
            gap.e_minus / ((gap.e_plus - shift) * (shift - gap.e_minus))
        )
        assert computed <= bound

    def test_empty_lower_block_is_zero(self, kp_grid_600):
        # a gap below every eigenvalue of H leaves P- empty, so B_q has no columns
        ham, _ = kp_grid_600
        e1 = float(ham.eigenvalues()[0])
        q = math.sqrt(0.25 * e1)
        assert bq_norm(ham, GapSpectrum(0.0, e1), q, 0.25 * e1) == 0.0

    def test_frozen_weights_linear_in_q(self, kp_grid_600):
        ham, gap = kp_grid_600
        _, ebar, _ = qbar_and_ebar(gap)
        b1 = bq_norm(ham, gap, 0.1, ebar - 0.01, frozen_shift=ebar)
        b2 = bq_norm(ham, gap, 0.2, ebar - 0.01, frozen_shift=ebar)
        assert b2 == pytest.approx(2.0 * b1, rel=1e-12)


class TestKernel:
    def test_symmetry_and_realness(self, kp_grid_600):
        ham, gap = kp_grid_600
        _, ebar, _ = qbar_and_ebar(gap)
        g12 = avg_resolvent_kernel(ham, ebar, 14.0, 26.0, 0.5)
        g21 = avg_resolvent_kernel(ham, ebar, 26.0, 14.0, 0.5)
        assert isinstance(g12, float)
        assert abs(g12 - g21) < 1e-12

    def test_single_point_ball_limit(self, kp_grid_600):
        ham, _ = kp_grid_600
        grid = ham.grid
        eps = 0.4 * grid.h  # ball catches exactly one grid point
        i, j = 200, 400
        x1, x2 = grid.points[i], grid.points[j]
        energy = -1.0  # well below the spectrum
        val = avg_resolvent_kernel(ham, energy, x1, x2, eps)
        rmat = np.linalg.inv(ham.bands.dense(energy))
        assert val == pytest.approx(grid.h * rmat[i, j] / (2 * eps) ** 2, rel=1e-10)

    def test_ball_outside_domain(self, kp_grid_600):
        ham, _ = kp_grid_600
        with pytest.raises(BallOutsideDomainError):
            avg_resolvent_kernel(ham, -1.0, 0.2, 20.0, 0.5)

    def test_shift_in_spectrum(self, kp_grid_600):
        ham, _ = kp_grid_600
        ev = ham.eigenvalues()[3]
        with pytest.raises(ShiftInSpectrumError):
            avg_resolvent_kernel(ham, ev, 10.0, 20.0, 0.5)
        # a complex E is checked on the disc |E - ev| <= THETA_GAP = 1e-6
        with pytest.raises(ShiftInSpectrumError):
            avg_resolvent_kernel(ham, ev + 0.5e-6j, 10.0, 20.0, 0.5)
        avg_resolvent_kernel(ham, ev + 0.8e-6 + 0.8e-6j, 10.0, 20.0, 0.5)
        avg_resolvent_kernel(ham, ev + 2e-6j, 10.0, 20.0, 0.5)

    def test_certificate_up_to_095_qc(self, kp_grid_2000):
        # envelope holds for every sampled interior pair at all q <= 0.95 q_c
        from csop.decay import BoundInputs, certify_bound

        ham, gap = kp_grid_2000
        _, ebar, _ = qbar_and_ebar(gap)
        qc = critical_q(gap, ebar)
        samples = resolvent_kernel_scan(ham, ebar, np.arange(8.0, 25.0, 2.0), 0.5)
        for frac in (0.25, 0.6, 0.85, 0.95):
            inputs = BoundInputs(gap=gap, energy=ebar, q=frac * qc, eps=0.5, dim=1)
            assert certify_bound(samples, inputs).passed

    def test_midgap_decay_rate(self, kp_grid_2000):
        # fitted single-energy rate approximates arccosh|h(E)| and beats 0.95 q_c
        ham, gap = kp_grid_2000
        _, ebar, _ = qbar_and_ebar(gap)
        seps = np.arange(8.0, 25.0, 2.0)
        samples = resolvent_kernel_scan(ham, ebar, seps, 0.5)
        design = np.column_stack([np.ones(seps.size), -seps])
        coef, *_ = np.linalg.lstsq(design, np.log(samples[:, 1]), rcond=None)
        rate = coef[1]
        qc = critical_q(gap, ebar)
        assert rate >= 0.95 * qc
        kappa = math.acosh(abs(dispersion(KPModel(3.0), ebar)))
        assert abs(rate - kappa) / kappa < 0.03


class TestProjectorDecay:
    def test_toy_two_level(self):
        grid = Grid1D(length=4.0, n=39)
        # localized eigenvectors: identity basis; lower state at site 0
        ham = diagonal_hamiltonian(np.concatenate([np.zeros(1), np.full(38, 10.0)]), grid)
        gap = GapSpectrum(e_minus=0.0, e_plus=10.0)
        evals, evecs = ham.eigensystem()
        phi = evecs[:, evals <= 0.0]
        p = phi @ phi.T
        assert p[0, 0] == pytest.approx(1.0)
        assert np.max(np.abs(p[1:, 1:])) < 1e-12

    def test_kp_filled_band_rate(self, kp_grid_2000):
        ham, gap = kp_grid_2000
        seps = np.arange(8.0, 25.0, 2.0)
        result = projector_decay(ham, gap, 0.5, seps)
        qbar, _, _ = qbar_and_ebar(gap)
        assert result.q_fit >= qbar - 0.02
        _, q_exact = exact_decay(KPModel(3.0))
        assert abs(result.q_fit - q_exact) / q_exact < 0.02

    def test_margin_validation(self, kp_grid_600):
        ham, gap = kp_grid_600
        with pytest.raises(BallOutsideDomainError):
            projector_decay(ham, gap, 0.5, [39.0])
