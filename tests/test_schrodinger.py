import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scipy.linalg

from csop._blas import one_blas_thread
from csop.antilinear import antilinear_spectrum, block_embed, real_doubling
from csop.decay import critical_q, qbar_and_ebar
from csop.errors import (
    BallOutsideDomainError,
    ConvergenceError,
    InvalidGapError,
    NegativePotentialError,
    NoGapFoundError,
    PreconditionError,
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
    _bulk_mask,
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
from conftest import patch_lapack


def kp_comb(n, v0=3.0, length=40.0):
    """The Kronig-Penney comb of strength v0 at the integers of (0, length)."""
    return build_hamiltonian(Grid1D(length=length, n=n), PotentialSpec.delta_comb(np.arange(1.0, length), v0))


def dense_bq_norm(ham, q, shift):
    """||B_q|| from every eigenpair of H: the 2-norm of the (n - k) x k block
    |L+ - s|^(-1/2) U+^T qD U- |L- - s|^(-1/2)."""
    evals, evecs = scipy.linalg.eigh_tridiagonal(ham.bands.main, ham.bands.sup)
    upper = evals > shift
    w = 1.0 / np.sqrt(np.abs(evals - shift))
    core = q * (evecs[:, upper].T @ Tridiagonal.central_difference(ham.grid).matvec(evecs[:, ~upper]))
    return float(np.linalg.norm((w[upper][:, None] * core) * w[~upper][None, :], 2))


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
            dense = real_doubling(np.conj(conj.p) @ emb)[:2 * n, :2 * n]
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
            lam, x, _ = min_lambda(t, shift)
            assert abs(lam - sv[0]) <= 1e-12 * scale
            assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-12)
        elif sv[0] <= 1e-15 * scale:
            with pytest.raises(SingularShiftError):
                min_lambda(t, shift)

    @pytest.mark.parametrize(
        "complex_symmetric, value_only",
        [(False, False), (True, False), (False, True), (True, True)],
        ids=["False", "True", "False-value_only", "True-value_only"],
    )
    def test_lanczos_near_double_sigma_min(self, complex_symmetric, value_only):
        # two decoupled entries put the two smallest singular values 1e-10
        # apart (relative), ten times the tolerance: a Ritz value left on the
        # larger one, or on a mixture of the two, fails
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
        assert abs(min_lambda(t, value_only=value_only)[0] - sv[0]) <= atol

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

    @pytest.mark.parametrize("shift", [np.nan, np.inf, complex(1.0, np.nan)])
    def test_nonfinite_shift_is_refused(self, shift):
        t = Tridiagonal(sub=np.ones(2), main=np.full(3, 3.0), sup=np.ones(2))
        with pytest.raises(PreconditionError, match="must be finite"):
            _band_lu(t, shift)

    def test_block_solve_holds_two_blocks(self):
        # the Fortran-ordered solution and its abs for the SOLVE_MAX check;
        # b is not copied when n >= 3 needs no padding
        n, k = 20000, 40
        t = Tridiagonal(sub=np.ones(n - 1), main=np.full(n, 4.0), sup=np.ones(n - 1))
        solve = _band_lu(t, 0.5)
        b = np.random.default_rng(0).standard_normal((n, k))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            x = solve(b)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2.01 * b.nbytes
        assert np.max(np.abs(t.matvec(x) - 0.5 * x - b)) <= 1e-13 * np.max(np.abs(b))


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
        evals = ham.eigensystem()[0]
        for k in (1, 2, 3):
            assert abs(evals[k - 1] - k**2) < k**4 * grid.h**2 / 6.0

    def test_constant_shift_exact(self):
        n = 50
        grid = Grid1D(length=5.0, n=n)
        h0 = build_hamiltonian(grid, PotentialSpec.sampled(np.zeros(n)))
        hc = build_hamiltonian(grid, PotentialSpec.sampled(np.full(n, 2.5)))
        assert np.allclose(hc.eigensystem()[0], h0.eigensystem()[0] + 2.5, atol=1e-10)

    def test_negative_potential_rejected(self):
        with pytest.raises(NegativePotentialError):
            PotentialSpec.sampled([-1.0, 0.0, 1.0])

    def test_delta_positions_validated(self):
        grid = Grid1D(length=2.0, n=19)
        with pytest.raises(ValueError):
            build_hamiltonian(grid, PotentialSpec.delta_comb([2.5], 1.0))

    @pytest.mark.parametrize("call, message", [
        (lambda: Grid1D(length=0.0, n=10), "grid length must be positive"),
        (lambda: Grid1D(length=-1.0, n=10), "grid length must be positive"),
        (lambda: Grid1D(length=1.0, n=2), "need at least 3 interior points"),
        (lambda: PotentialSpec.delta_comb([1.0], 0.0), "strength v0 must be positive"),
        (lambda: build_hamiltonian(Grid1D(length=1.0, n=5), PotentialSpec.sampled(np.zeros(4))),
         "sampled potential needs 5 values"),
        (lambda: Tridiagonal(sub=np.array([1j]), main=np.zeros(2, dtype=complex), sup=np.array([2j])).doubling(),
         "needs it symmetric"),
    ], ids=["zero_length", "negative_length", "two_points", "zero_strength", "sampled_wrong_length",
            "complex_not_symmetric"])
    def test_outside_input_checks(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

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
        gap = find_gap(ham, energy_ceiling=math.inf)
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
        e0 = ham.eigensystem()[0]
        cut = np.searchsorted(e0, 30.0)
        tol = 1.2 * q * q * 30.0 * ham.grid.h**2 / 2.0 + 1e-10 * np.max(np.abs(e0))
        assert np.max(np.abs(ev[:cut] - e0[:cut])) < tol

    def test_real_spectrum_and_sigma_min_pattern(self, kp_grid_600):
        ham, gap = kp_grid_600
        q = 0.2
        hq = boost(ham, q)
        evals = np.linalg.eigvals(hq.dense())
        assert np.max(np.abs(evals.imag)) < 1e-9 * np.max(np.abs(ham.eigensystem()[0]))
        _, ebar, _ = qbar_and_ebar(gap)
        smin_q = np.linalg.svd(hq.dense(ebar), compute_uv=False).min()
        smin_0 = np.min(np.abs(ham.eigensystem()[0] - ebar))
        assert smin_q < smin_0 * (1.0 + 1e-3)


class TestGammaNorm:
    def test_q_zero_selfadjoint(self, kp_grid_600):
        ham, gap = kp_grid_600
        _, ebar, _ = qbar_and_ebar(gap)
        expect = 1.0 / np.min(np.abs(ham.eigensystem()[0] - ebar))
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
        evals = ham.eigensystem()[0]
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
        e1 = float(ham.eigensystem()[0][0])
        q = math.sqrt(0.25 * e1)
        assert bq_norm(ham, GapSpectrum(0.0, e1), q, 0.25 * e1) == 0.0

    def test_frozen_weights_linear_in_q(self, kp_grid_600):
        ham, gap = kp_grid_600
        _, ebar, _ = qbar_and_ebar(gap)
        b1 = bq_norm(ham, gap, 0.1, ebar - 0.01, frozen_shift=ebar)
        b2 = bq_norm(ham, gap, 0.2, ebar - 0.01, frozen_shift=ebar)
        assert b2 == pytest.approx(2.0 * b1, rel=1e-12)


    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        v0=st.floats(1.5, 13.0),
        n=st.integers(60, 1500),
        frac=st.floats(0.05, 0.95),
        frozen=st.none() | st.floats(0.05, 0.95),
    )
    def test_matches_dense_formula(self, v0, n, frac, frozen):
        # the gap above the first band, whose 40 states fill the 40 cells
        ham = kp_comb(n, v0)
        evals = scipy.linalg.eigh_tridiagonal(ham.bands.main, ham.bands.sup, eigvals_only=True)
        gap = GapSpectrum(e_minus=float(evals[39]), e_plus=float(evals[40]), e_bottom=float(evals[0]))
        _, ebar, _ = qbar_and_ebar(gap)
        q = frac * critical_q(gap, ebar)
        shift = ebar if frozen is None else gap.e_minus + frozen * gap.gap
        computed = bq_norm(ham, gap, q, ebar - q * q, frozen_shift=None if frozen is None else shift)
        expected = dense_bq_norm(ham, q, shift)
        assert abs(computed - expected) <= 1e-10 * expected


@pytest.fixture
def eigh_calls(monkeypatch):
    """(routine, arguments) of every LAPACK tridiagonal eigensolver call from here on."""
    calls = []

    def spy(name, routine):
        if name not in ("stev", "stevd", "stemr", "stebz", "stein"):
            return routine
        return lambda *a, **k: calls.append((name, a)) or routine(*a, **k)

    patch_lapack(monkeypatch, spy)
    return calls


def surface_pair(n):
    """A 400 barrier with zero potential on the 10 sites next to each wall (fewer for n < 30),
    which binds one state at each wall; the two are degenerate to working precision."""
    values = np.full(n, 400.0)
    values[:min(10, n // 3)] = values[n - min(10, n // 3):] = 0.0
    return build_hamiltonian(Grid1D(length=40.0, n=n), PotentialSpec.sampled(values))


class TestEigensystemWindow:
    def test_narrower_window_slices_the_cache(self, eigh_calls):
        ham = kp_comb(600)
        evals, evecs = ham.eigensystem()
        for ceiling in (35.0, float(evals[10]), float(evals[0]) - 1.0, math.inf):
            window_evals, window_evecs = ham.eigensystem(ceiling)
            k = int(np.sum(evals <= ceiling))
            assert np.array_equal(window_evals, evals[:k])
            assert np.array_equal(window_evecs, evecs[:, :k])
        # the full eigensystem by MRRR, and no window after it
        assert [name for name, _ in eigh_calls] == ["stemr"]

    def test_wider_window_recomputes_once(self, eigh_calls):
        ham = kp_comb(600)
        empty, no_vectors = ham.eigensystem(0.5)
        narrow, _ = ham.eigensystem(20.0)
        wide, _ = ham.eigensystem(35.0)
        again, _ = ham.eigensystem(20.0)
        # ?stebz's arguments are (d, e, range, vl, vu, ...), range 1 selecting (vl, vu]
        assert [name for name, _ in eigh_calls] == ["stebz", "stein"] * 3
        assert [a[2:5] for name, a in eigh_calls if name == "stebz"] == [(1, -math.inf, c) for c in (0.5, 20.0, 35.0)]
        assert empty.size == 0 and no_vectors.shape == (600, 0)
        assert wide.size > narrow.size == again.size and np.max(wide) <= 35.0
        assert np.allclose(again, narrow, rtol=1e-12, atol=0.0)

    def test_windowed_find_gap_matches_full(self, kp_grid_2000):
        # the fixture cached every pair, so its gap came from the full eigensystem
        full_ham, full_gap = kp_grid_2000
        gap = find_gap(kp_comb(2000), energy_ceiling=35.0)
        for edge in ("e_minus", "e_plus", "e_bottom"):
            assert getattr(gap, edge) == pytest.approx(getattr(full_gap, edge), rel=1e-12)

    @pytest.mark.parametrize("surface", [False, True])
    def test_windowed_vectors_orthonormal(self, surface):
        # the two wall states fall below the ceiling together
        ham, ceiling = (surface_pair(2000), 420.0) if surface else (kp_comb(2000), 35.0)
        evals, evecs = ham.eigensystem(ceiling)
        if surface:
            levels = evals[~_bulk_mask(evecs)]
            assert levels.size == 2 and levels[1] - levels[0] < 1e-9
        assert np.max(np.abs(evecs.T @ evecs - np.eye(evals.size))) <= 1e-12
        residual = ham.bands.matvec(evecs) - evecs * evals
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(ham.bands.main))

    @pytest.mark.parametrize("n, ceiling, case", [
        (300, 35.0, "comb"), (1500, 35.0, "comb"), (2000, 420.0, "surface"), (600, 0.5, "comb"), (6, 10.0, "split"),
    ])
    def test_window_is_scipys_bitwise(self, n, ceiling, case):
        # ?stebz + ?stein called directly keep one copy of the vectors and
        # reorder only a split H (a zero off-diagonal), whose blocks come one
        # after another: the last case has two blocks in descending order
        if case == "split":
            off = np.array([-1.0, -1.0, 0.0, -0.3, -0.1])
            ham = DiscreteHamiltonian(Tridiagonal(off, np.array([5.0, 4.0, 3.0, 0.5, 0.2, 0.1]), off), Grid1D(1.0, n))
        else:
            ham = surface_pair(n) if case == "surface" else kp_comb(n)
        evals, evecs = ham.eigensystem(ceiling)
        with one_blas_thread:
            expected = scipy.linalg.eigh_tridiagonal(ham.bands.main, ham.bands.sup, select="v",
                                                     select_range=(-math.inf, ceiling))
        assert np.array_equal(evals, expected[0]) and np.array_equal(evecs, expected[1])

    def test_filled_band_paths_allocate_o_nk(self):
        # the 72 pairs below the ceiling are 11 MiB, held once (find_gap
        # measured 12.1 MiB), and bq_norm holds a few n x k blocks besides
        # (measured 30.5 MiB in all); the full eigensystem alone is 3.2 GB
        tracemalloc.start()
        try:
            ham = kp_comb(20000)
            gap = find_gap(ham, energy_ceiling=35.0)
            _, gap_peak = tracemalloc.get_traced_memory()
            qbar, ebar, _ = qbar_and_ebar(gap)
            q = 0.5 * critical_q(gap, ebar)
            fit = projector_decay(ham, gap, 0.5, np.arange(8.0, 25.0, 2.0))
            bq = bq_norm(ham, gap, q, ebar - q * q)
            gam = gamma_norm(ham, q, ebar - q * q, gap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gap_peak < 13 * 2**20 and peak < 34 * 2**20
        assert fit.q_fit >= qbar - 0.02 and 0.0 < bq < 0.5 and np.isfinite(gam)


class TestAllPairs:
    def test_eigensystem_holds_one_n_by_n_array(self):
        # ?stemr: the n x n vectors (1 unit of n^2 doubles) and O(n)
        # workspace; ?stevd's workspace of 1 + 4n + n^2 doubles made it 2.0
        ham = kp_comb(1500)
        tracemalloc.start()
        try:
            ham.eigensystem()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (1500 * 1500 * 8) <= 1.1

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(3, 600), kind=st.sampled_from(["comb", "sampled", "surface"]),
           strength=st.floats(0.5, 13.0), decades=st.floats(-1.0, 3.0), seed=st.integers(0, 2**32 - 1))
    @example(n=600, kind="surface", strength=1.0, decades=0.0, seed=0)
    def test_matches_dense_eigh(self, n, kind, strength, decades, seed):
        # MRRR against divide and conquer on the dense matrix: eigenvalues
        # within 64 eps ||T|| (the largest seen was 20), orthonormal vectors
        # and residuals within 1e-11 (7.4e-13 and 6.9e-15 seen); the surface
        # pair is the degenerate one of test_windowed_vectors_orthonormal
        if kind == "comb":
            ham = kp_comb(n, strength)
        elif kind == "sampled":
            values = np.random.default_rng(seed).uniform(0.0, 10.0 ** decades, n)
            ham = build_hamiltonian(Grid1D(length=40.0, n=n), PotentialSpec.sampled(values))
        else:
            ham = surface_pair(n)
        evals, evecs = ham.eigensystem()
        norm = np.max(np.abs(ham.bands.main)) + 2.0 * np.max(np.abs(ham.bands.sup))
        eps = np.finfo(float).eps
        assert np.max(np.abs(evals - scipy.linalg.eigvalsh(ham.bands.dense()))) <= 64 * eps * norm
        assert np.max(np.abs(evecs.T @ evecs - np.eye(n))) <= 1e-11
        assert np.max(np.abs(ham.bands.matvec(evecs) - evecs * evals)) <= 1e-11 * norm

    @pytest.mark.parametrize("routine, ceiling, message", [
        ("stemr", math.inf, r"\?stemr failed on all pairs at n = 600"),
        ("stebz", 35.0, r"\?stebz/\?stein failed at n = 600: info 1, 0"),
        ("stein", 35.0, r"\?stebz/\?stein failed at n = 600: info 0, 1"),
    ])
    def test_lapack_failure_raises(self, monkeypatch, routine, ceiling, message):
        # LAPACK's info > 0 (the routine did not converge) is its last output
        patch_lapack(monkeypatch, lambda name, f: f if name != routine else lambda *a, **k: (*f(*a, **k)[:-1], 1))
        with pytest.raises(ConvergenceError, match=message):
            kp_comb(600).eigensystem(ceiling)


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

    @pytest.mark.parametrize("eps_per_h, message", [
        (0.0, "must be positive"), (-0.5, "must be positive"), (0.25, "holds no grid point"),
    ], ids=["zero", "negative", "between_points"])
    def test_sampler_refuses_empty_balls(self, kp_grid_600, eps_per_h, message):
        # the midpoint 20 = 300.5 h lies halfway between two grid points, and so
        # does 20 +- m h: a ball of radius h / 4 there holds none, and all three
        # kernels refuse it instead of averaging it to 0
        ham, gap = kp_grid_600
        h = ham.grid.h
        eps = eps_per_h * h
        seps = 2.0 * h * np.array([60, 90, 120, 150])
        calls = [
            lambda: avg_resolvent_kernel(ham, -1.0, 20.0 - 60 * h, 20.0 + 60 * h, eps),
            lambda: resolvent_kernel_scan(ham, -1.0, seps, eps),
            lambda: projector_decay(ham, gap, eps, seps),
        ]
        for call in calls:
            with pytest.raises(PreconditionError, match=message):
                call()

    def test_ball_outside_domain(self, kp_grid_600):
        ham, _ = kp_grid_600
        with pytest.raises(BallOutsideDomainError):
            avg_resolvent_kernel(ham, -1.0, 0.2, 20.0, 0.5)

    def test_shift_in_spectrum(self, kp_grid_600):
        ham, _ = kp_grid_600
        ev = ham.eigensystem()[0][3]
        with pytest.raises(ShiftInSpectrumError):
            avg_resolvent_kernel(ham, ev, 10.0, 20.0, 0.5)
        # a complex E is checked on the disc |E - ev| <= THETA_GAP = 1e-6
        with pytest.raises(ShiftInSpectrumError):
            avg_resolvent_kernel(ham, ev + 0.5e-6j, 10.0, 20.0, 0.5)
        avg_resolvent_kernel(ham, ev + 0.8e-6 + 0.8e-6j, 10.0, 20.0, 0.5)
        avg_resolvent_kernel(ham, ev + 2e-6j, 10.0, 20.0, 0.5)

    @pytest.mark.parametrize("energy", [np.nan, -np.inf, complex(13.0, np.inf)])
    def test_nonfinite_energy_is_refused(self, kp_grid_600, energy):
        # refused before the spectrum check, whose ?stebz raises LinAlgError on nan
        ham, _ = kp_grid_600
        with pytest.raises(PreconditionError, match="E = .* must be finite"):
            avg_resolvent_kernel(ham, energy, 10.0, 20.0, 0.5)

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
