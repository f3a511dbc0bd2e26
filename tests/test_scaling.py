import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from csop import antilinear, scaling
from csop.errors import ConvergenceError, PairingAmbiguityError, SingularShiftError, StripViolationError
from csop.scaling import (
    FLOOR_RTOL,
    DilationPotential,
    build_scaled,
    classify_spectrum,
    essential_floor_check,
    exact_relative_bound,
    fit_relative_bound,
    locate_resonance,
    perturbation_scan,
    polish_eigenvalue,
    ray_distance,
    resolvent_norm_at,
    sigma_min,
)
from csop.schrodinger import (
    GapSpectrum,
    Grid1D,
    PotentialSpec,
    boost,
    build_hamiltonian,
    gamma_norm,
)

FREE = DilationPotential(lambda x: np.zeros_like(x), 1.0)
ALPHA75 = DilationPotential.alpha_r2_exp(7.5)
WINDOW = (0.0, 6.0, -0.5, 0.0)
EVERYWHERE = (-1e9, 1e9, -1e9, 1e9)


@pytest.fixture(scope="module")
def resonance_500():
    grid = Grid1D(length=40.0, n=500)
    res = locate_resonance(ALPHA75, grid, 0.3j, window=WINDOW)
    return grid, res


class TestBuild:
    def test_free_real_laplacian(self):
        grid = Grid1D(length=math.pi, n=200)
        ham = build_scaled(FREE, grid, 0.0)
        assert np.max(np.abs(ham.matrix.imag)) == 0.0
        evals = np.sort(np.linalg.eigvalsh(ham.matrix.real))
        for k in (1, 2, 3):
            assert abs(evals[k - 1] - k * k) < k**4 * grid.h**2 / 6.0

    def test_free_rotation_exact(self):
        grid = Grid1D(length=10.0, n=150)
        theta = 0.3j
        h0 = build_scaled(FREE, grid, 0.0)
        ht = build_scaled(FREE, grid, theta)
        base = np.sort(np.linalg.eigvalsh(h0.matrix.real))
        rotated = np.sort((ht.eigenvalues() * np.exp(2.0 * theta)).real)
        assert np.max(np.abs(rotated - base)) < 1e-12 * base[-1]

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(-50.0, 50.0),
        rate=st.floats(0.05, 5.0),
        n=st.integers(3, 60),
        theta_re=st.floats(-0.5, 0.5),
        theta_im=st.floats(-1.5, 1.5),
        gamma=st.floats(-1.0, 1.0),
    )
    def test_transpose_symmetric_bitwise(self, alpha, rate, n, theta_re, theta_im, gamma):
        ham = build_scaled(ALPHA75, Grid1D(length=40.0, n=300), 0.3j, gamma=0.0)
        assert np.array_equal(ham.matrix, ham.matrix.T)

        def shape(x):
            return alpha * x * x * np.exp(-rate * x)

        pot = DilationPotential(shape, 0.5 * math.pi, w=shape)
        sampled = build_scaled(pot, Grid1D(length=10.0, n=n), complex(theta_re, theta_im), gamma)
        assert np.array_equal(sampled.matrix, sampled.matrix.T)

    def test_strip_violation(self):
        grid = Grid1D(length=10.0, n=50)
        with pytest.raises(StripViolationError):
            build_scaled(ALPHA75, grid, 1.6j)

    def test_gamma_requires_perturbation(self):
        grid = Grid1D(length=10.0, n=50)
        with pytest.raises(ValueError):
            build_scaled(ALPHA75, grid, 0.1j, gamma=0.5)


class TestClassify:
    @pytest.mark.parametrize("call, message", [
        (lambda: classify_spectrum(build_scaled(FREE, Grid1D(10.0, 20), 0.3j),
                                   build_scaled(FREE, Grid1D(10.0, 20), 0.3j), WINDOW),
         "must differ in theta"),
        (lambda: perturbation_scan(ALPHA75, Grid1D(10.0, 20), 0.3j, [0.0], 4.0 - 0.1j, 4.0 - 0.2j),
         "requires a potential with w"),
    ], ids=["equal_theta", "no_w"])
    def test_outside_input_checks(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_free_all_continuum(self):
        # the window holds the whole spectrum, so the search ends on the dense branch
        grid = Grid1D(length=10.0, n=120)
        h1 = build_scaled(FREE, grid, 0.3j)
        h2 = build_scaled(FREE, grid, 0.32j)
        cls = classify_spectrum(h1, h2, (-1.0, 600.0, -400.0, 1.0))
        assert Counter(cls.labels) == {"continuum": 120}

    def test_bound_state_stationary(self):
        # deep well supports a negative-energy bound state at theta = 0
        well = DilationPotential(
            lambda x: -8.0 * np.exp(-((x - 4.0) ** 2)), math.pi / 4
        )
        grid = Grid1D(length=30.0, n=600)
        h1 = build_scaled(well, grid, 0.25j)
        h2 = build_scaled(well, grid, 0.27j)
        cls = classify_spectrum(h1, h2, (-8.0, 0.0, -0.5, 0.5))
        bound = cls.with_label("bound")
        assert bound.size >= 1
        assert np.all(bound.real < 0)
        assert np.max(np.abs(bound.imag)) < 1e-3

    def test_two_points_sharing_one_partner_raise(self, monkeypatch):
        # both resonance points lie within the stationarity radius of the one
        # eigenvalue of h2, but farther than that radius from each other
        grid = Grid1D(length=40.0, n=60)
        h1 = build_scaled(ALPHA75, grid, 0.3j)
        h2 = build_scaled(ALPHA75, grid, 0.32j)
        partner = 4.0 - 0.2j
        reach = scaling.STAT_FACTOR * abs(partner) * 0.02
        pair = partner + np.array([-0.75, 0.75]) * reach
        monkeypatch.setattr(
            scaling, "_eigenvalues_in_disc",
            lambda h, centre, radius: pair if h is h1 else np.array([partner]),
        )
        with pytest.raises(PairingAmbiguityError):
            classify_spectrum(h1, h2, WINDOW)

    def test_alpha75_exactly_one_resonance_in_window(self):
        grid = Grid1D(length=40.0, n=1000)
        h1 = build_scaled(ALPHA75, grid, 0.3j)
        h2 = build_scaled(ALPHA75, grid, 0.32j)
        cls = classify_spectrum(h1, h2, WINDOW)
        assert cls.with_label("resonance").size == 1

    @settings(max_examples=12, deadline=None)
    @given(
        theta_im=st.floats(0.2, 0.4),
        n=st.integers(150, 500),
        re=st.lists(st.floats(-1.0, 8.0), min_size=2, max_size=2, unique=True).map(sorted),
        im=st.lists(st.floats(-1.0, 0.1), min_size=2, max_size=2, unique=True).map(sorted),
        snap=st.booleans(),
    )
    def test_window_labels_match_whole_spectrum(self, theta_im, n, re, im, snap):
        grid = Grid1D(length=40.0, n=n)
        h1 = build_scaled(ALPHA75, grid, theta_im * 1j)
        h2 = build_scaled(ALPHA75, grid, (theta_im + 0.02) * 1j)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scaling, "ARNOLDI_K0", n)  # the dense oracle: eigvals of both spectra at once
            oracle = classify_spectrum(h1, h2, EVERYWHERE)
        z = oracle.eigenvalues
        near = z[(z.real > re[0]) & (z.real < 8.0) & (z.imag > -1.0) & (z.imag < im[1])]
        if snap and near.size:
            # lower right corner just past an eigenvalue: its rotated partner
            # leaves the disc around the window, so only the widened h2 disc holds it
            corner = near[np.argmin(np.abs(near - complex(re[1], im[0])))]
            re[1], im[0] = corner.real + 1e-9, corner.imag - 1e-9
        window = (re[0], re[1], im[0], im[1])
        cls = classify_spectrum(h1, h2, window)
        inside = (z.real > re[0]) & (z.real < re[1]) & (z.imag > im[0]) & (z.imag < im[1])
        assert cls.eigenvalues.size == int(np.sum(inside))
        for zw, label in zip(cls.eigenvalues, cls.labels):
            i = int(np.argmin(np.abs(z - zw)))
            assert abs(z[i] - zw) <= 1e-9 * abs(zw)
            assert label == oracle.labels[i]

    def test_window_search_reads_no_dense_spectrum(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense eigenvalues read at n = 1000")

        monkeypatch.setattr(scaling.ScaledHamiltonian, "eigenvalues", refuse)
        res = locate_resonance(ALPHA75, Grid1D(length=40.0, n=1000), 0.3j, window=WINDOW)
        assert abs(res.z - (4.0723 - 0.19631j)) < 1e-3

    def test_window_search_step_cap_raises(self, monkeypatch):
        # the 32 eigenvalues nearest 10 - 5i need ARPACK restarts
        grid = Grid1D(length=40.0, n=1000)
        h1 = build_scaled(ALPHA75, grid, 0.3j)
        h2 = build_scaled(ALPHA75, grid, 0.32j)
        monkeypatch.setattr(scaling, "LANCZOS_MAXITER", 1)
        with pytest.raises(ConvergenceError):
            classify_spectrum(h1, h2, (0.0, 20.0, -10.0, 0.0))

    def test_locate_needs_window_or_guess(self):
        with pytest.raises(ValueError, match="window"):
            locate_resonance(ALPHA75, Grid1D(length=40.0, n=200), 0.3j)

    def test_different_potentials_rejected(self):
        grid = Grid1D(length=20.0, n=40)
        h1 = build_scaled(DilationPotential.alpha_r2_exp(7.5), grid, 0.3j)
        h2 = build_scaled(DilationPotential.alpha_r2_exp(2.0), grid, 0.32j)
        with pytest.raises(ValueError, match="same grid, potential and gamma"):
            classify_spectrum(h1, h2, WINDOW)
        # potentials compare by value, not by the object that holds them
        classify_spectrum(h1, build_scaled(DilationPotential.alpha_r2_exp(7.5), grid, 0.32j), WINDOW)


class TestRayDistance:
    def test_on_ray(self):
        theta = 0.25j
        z = 2.0 * np.exp(-2j * 0.25)
        assert ray_distance(complex(z), theta) < 1e-14

    def test_real_theta_distance_to_positive_axis(self):
        assert ray_distance(1j, 0.0) == pytest.approx(1.0)

    def test_formula_value(self):
        z = 2.0 * np.exp(-0.3j)
        expect = abs(2.0 * math.sin(2 * 0.25 - 0.3))
        assert ray_distance(complex(z), 0.25j) == pytest.approx(expect, rel=1e-12)

    def test_brute_force_min_over_ray(self):
        rng = np.random.default_rng(0)
        theta = 0.3j
        direction = np.exp(-2j * 0.3)
        rs = np.linspace(0.0, 50.0, 200001)
        for _ in range(10):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            brute = np.min(np.abs(z - rs * direction))
            assert ray_distance(z, theta) == pytest.approx(brute, abs=1e-4)

    def test_clamp_beyond_perpendicular(self):
        # projection falls on the negative extension: distance is |z|
        z = -1.0 + 0.1j
        assert ray_distance(z, 0.0) == pytest.approx(abs(z))


class TestResolventNorm:
    def test_selfadjoint_distance(self):
        grid = Grid1D(length=10.0, n=80)
        ham = build_scaled(FREE, grid, 0.0)
        evals = np.linalg.eigvalsh(ham.matrix.real)
        z = -0.5
        rn = resolvent_norm_at(ham, z)
        assert rn.norm == pytest.approx(1.0 / np.min(np.abs(evals - z)), rel=1e-9)

    def test_lower_bound_and_identity(self, resonance_500):
        grid, res = resonance_500
        ham = build_scaled(ALPHA75, grid, 0.3j)
        rng = np.random.default_rng(1)
        evals = ham.eigenvalues()
        for _ in range(5):
            z = res.z + (rng.uniform(0.02, 0.3) + 1j * rng.uniform(-0.2, 0.2))
            rn = resolvent_norm_at(ham, z)
            smin = np.linalg.svd(ham.matrix - z * np.eye(grid.n), compute_uv=False).min()
            assert rn.norm == pytest.approx(1.0 / smin, rel=1e-9)
            assert rn.norm >= 1.0 / np.min(np.abs(evals - z)) - 1e-9
            assert rn.residual < 1e-8 * ham.norm_estimate

    def test_norm_grows_toward_resonance(self, resonance_500):
        grid, res = resonance_500
        ham = build_scaled(ALPHA75, grid, 0.3j)
        norms = [
            resolvent_norm_at(ham, res.z + d * (1 + 1j)).norm for d in (1e-1, 1e-2, 1e-3)
        ]
        assert norms[0] < norms[1] < norms[2]

    def test_singular_at_eigenvalue(self, resonance_500):
        grid, res = resonance_500
        ham = build_scaled(ALPHA75, grid, 0.3j)
        with pytest.raises(SingularShiftError):
            resolvent_norm_at(ham, res.z)

    def test_singular_at_resonance_computes_no_exact_norm(self, monkeypatch):
        # min lambda is below SINGULAR_RTOL * max |entry| <= SINGULAR_RTOL * ||H||
        # here, so the raise needs no eig_banded on the 2n doubling (O(n^2))
        grid = Grid1D(length=40.0, n=2000)
        z = locate_resonance(ALPHA75, grid, 0.3j, guess=4.0723 - 0.19631j).z
        ham = build_scaled(ALPHA75, grid, 0.3j)
        calls = []
        eig_banded = scipy.linalg.eig_banded
        monkeypatch.setattr(scipy.linalg, "eig_banded", lambda *a, **k: calls.append(1) or eig_banded(*a, **k))
        with pytest.raises(SingularShiftError):
            resolvent_norm_at(ham, z)
        assert calls == []

    def test_eigenvector_not_converged_raises(self, monkeypatch):
        ham = build_scaled(ALPHA75, Grid1D(length=40.0, n=200), 0.3j)
        monkeypatch.setattr(scaling, "RESIDUAL_RTOL", 0.0)
        with pytest.raises(ConvergenceError):
            resolvent_norm_at(ham, 4.1 - 0.15j)

    def test_sigma_min_converges_or_raises(self):
        # sigma_2 / sigma_1 = 1.02 here, a slow case for power-type iteration;
        # the engine must converge to the SVD value
        grid = Grid1D(length=40.0, n=800)
        ham = build_scaled(ALPHA75, grid, 0.3j)
        z = 2.5 - 0.3j
        direct = np.linalg.svd(ham.matrix - z * np.eye(grid.n), compute_uv=False).min()
        assert abs(sigma_min(ham, z) - direct) <= 1e-12 * direct

    def test_lanczos_step_cap_raises(self, monkeypatch):
        # this point needs restarts, so one Lanczos restart is not enough
        ham = build_scaled(ALPHA75, Grid1D(length=40.0, n=800), 0.3j)
        monkeypatch.setattr(antilinear, "LANCZOS_MAXITER", 1)
        with pytest.raises(ConvergenceError):
            sigma_min(ham, 2.5 - 0.3j)
        with pytest.raises(ConvergenceError):
            resolvent_norm_at(ham, 2.5 - 0.3j)

    def test_sigma_min_matches_svd(self, resonance_500):
        grid, res = resonance_500
        ham = build_scaled(ALPHA75, grid, 0.3j)
        z = res.z + 0.05 + 0.02j
        direct = np.linalg.svd(ham.matrix - z * np.eye(grid.n), compute_uv=False).min()
        assert sigma_min(ham, z) == pytest.approx(direct, rel=1e-9)


class TestBanded:
    def test_tridiagonal_paths_allocate_no_dense_matrix(self):
        # one dense complex n x n matrix would be 381 MiB at this size
        n = 5000
        grid = Grid1D(length=40.0, n=n)
        comb = PotentialSpec.delta_comb(np.arange(1.0, 40.0), 3.0)
        kp = build_hamiltonian(grid, comb)
        gap = GapSpectrum(e_minus=9.87, e_plus=17.0)
        tracemalloc.start()
        try:
            boost(build_hamiltonian(grid, comb), 0.3)
            ham = build_scaled(ALPHA75, grid, 0.3j)
            sigma_min(ham, 4.1 - 0.15j)
            locate_resonance(ALPHA75, grid, 0.3j, guess=4.0723 - 0.19631j)
            resolvent_norm_at(ham, 4.1 - 0.15j)
            essential_floor_check(ham, 4.0823 - 0.19631j)
            gamma_norm(kp, 0.3, 13.0, gap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_resonance_paths_allocate_o_n_at_20000(self):
        # 32 MiB: the Lanczos basis on the 2n doubling takes about 16 MiB at
        # this size; one dense complex n x n matrix would be 6.0 GiB
        grid = Grid1D(length=40.0, n=20000)
        tracemalloc.start()
        try:
            ham = build_scaled(ALPHA75, grid, 0.3j)
            norm = resolvent_norm_at(ham, 4.1 - 0.15j)
            z, _ = polish_eigenvalue(ham, 4.0723 - 0.19631j)
            res = locate_resonance(ALPHA75, grid, 0.3j, guess=4.0723 - 0.19631j)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert np.isfinite(norm.norm) and res.z == z and abs(z - (4.0723 - 0.19631j)) < 1e-3


class TestEssentialFloor:
    def test_free_nothing_below_floor(self):
        grid = Grid1D(length=40.0, n=300)
        ham = build_scaled(FREE, grid, 0.3j)
        report = essential_floor_check(ham, 2.0 - 1.0j)
        assert report.count_below == 0
        assert report.floor == pytest.approx(ray_distance(2.0 - 1.0j, 0.3j))

    def test_zero_floor_gives_empty_report(self):
        # z = 0 lies on the rotated ray: the floor is 0 and no value is below it
        ham = build_scaled(ALPHA75, Grid1D(length=40.0, n=300), 0.3j)
        report = essential_floor_check(ham, 0.0)
        assert report.floor == 0.0
        assert report.count_below == report.near_floor_count == report.below.size == 0

    @pytest.mark.parametrize("n", [300, 1000])
    def test_z_on_polished_eigenvalue(self, n):
        # sigma_min(H - z) is at rounding level here, and the two computed
        # eigenvalues +-sigma_min of the doubling can share a sign (both at
        # n = 300, neither at n = 1000): it must still count once
        grid = Grid1D(length=40.0, n=n)
        z = locate_resonance(ALPHA75, grid, 0.3j, guess=4.0723 - 0.19631j).z
        ham = build_scaled(ALPHA75, grid, 0.3j)
        report = essential_floor_check(ham, z)
        sv = np.linalg.svd(ham.matrix - z * np.eye(n), compute_uv=False)
        edge = report.floor - FLOOR_RTOL * report.floor
        below = np.sort(sv[sv < edge])
        assert report.count_below == below.size == 2
        assert report.below[0] < 1e-10 * abs(z)
        assert report.below[1] == pytest.approx(below[1], rel=1e-10)
        assert report.near_floor_count == np.sum(
            (sv >= edge) & (sv <= 1.1 * report.floor)
        )

    def test_resonance_pushes_singular_value_below(self, resonance_500):
        grid, res = resonance_500
        ham = build_scaled(ALPHA75, grid, 0.3j)
        report = essential_floor_check(ham, res.z + 0.01)
        assert report.count_below >= 1
        assert report.below[0] < 0.1 * report.floor


class TestResonance:
    def test_polish_is_an_eigenvalue(self, resonance_500):
        grid, res = resonance_500
        ham = build_scaled(ALPHA75, grid, 0.3j)
        assert res.sigma_min < 1e-10 * abs(res.z)
        evals = ham.eigenvalues()
        assert np.min(np.abs(evals - res.z)) < 1e-8 * abs(res.z)

    @pytest.mark.parametrize("theta_im", [0.2, 0.3, 0.4, 0.5])
    def test_sigma_min_at_polished_eigenvalue(self, theta_im):
        # sigma_min(H - z) is at rounding level, and the two computed
        # eigenvalues +-sigma_min of the doubling can share a sign: taking the
        # largest Ritz value instead of the largest magnitude read sigma_2
        # (1.25 at theta = 0.2i with solves on the 2n band of the doubling)
        ham = build_scaled(ALPHA75, Grid1D(length=40.0, n=1500), theta_im * 1j)
        z, _ = polish_eigenvalue(ham, 4.0723 - 0.19631j)
        assert sigma_min(ham, z) < 1e-10 * abs(z)

    def test_position_across_grids(self, resonance_500):
        grid, res = resonance_500
        z_fine = locate_resonance(ALPHA75, Grid1D(length=40.0, n=800), 0.3j, guess=res.z).z
        assert abs(z_fine - res.z) < 5e-3 * abs(res.z)

    def test_theta_stability(self, resonance_500):
        grid, res = resonance_500
        zs = [
            locate_resonance(ALPHA75, grid, im * 1j, guess=res.z).z
            for im in (0.25, 0.3, 0.4)
        ]
        spread = max(abs(a - b) for a in zs for b in zs)
        assert spread < 1e-3 * abs(res.z)


    def test_polish_raises_at_step_cap(self, resonance_500, monkeypatch):
        grid, res = resonance_500
        ham = build_scaled(ALPHA75, grid, 0.3j)
        monkeypatch.setattr(scaling, "POLISH_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            polish_eigenvalue(ham, res.z + 0.01)

    @pytest.mark.parametrize("z0", [2.0, 2.001])
    def test_polish_at_exact_eigenvalue_returns_eigenvector(self, z0):
        # 2 is an exact eigenvalue of this 3-point free Hamiltonian: from
        # z0 = 2 the first factorization is singular, and the random start
        # vector (relative residual 1.07) was returned unrefined
        ham = build_scaled(DilationPotential.alpha_r2_exp(0.0), Grid1D(4.0, 3), 0j)
        z, v = polish_eigenvalue(ham, z0)
        assert abs(z - 2.0) <= scaling.POLISH_TOL * 2.0
        residual = np.linalg.norm(ham.bands.matvec(v) - z * v) / np.linalg.norm(v)
        assert residual <= 1e-8 * max(1.0, abs(z))


class TestPerturbation:
    def test_scan_and_bound(self, resonance_500):
        grid, res = resonance_500
        pot = DilationPotential.alpha_r2_exp(7.5, perturbation_alpha=7.5)
        z_probe = res.z + 0.05 + 0.05j
        scan = perturbation_scan(pot, grid, 0.3j, [0.0, 0.01, 0.02], z_probe, res.z)
        assert scan.z_res[0] == pytest.approx(res.z, rel=1e-8)
        # measured ||w_theta (H_theta - z)^-1|| respects the closed-form bound
        ham = build_scaled(pot, grid, 0.3j)
        w_diag = pot.w(np.exp(0.3j) * grid.points.astype(complex))
        op = np.diag(w_diag) @ np.linalg.inv(ham.matrix - z_probe * np.eye(grid.n))
        assert np.linalg.norm(op, 2) <= scan.bound_estimates[0]

    def test_one_sigma_min_per_gamma(self, resonance_500, monkeypatch):
        # a gamma of 0 reuses the unperturbed norm behind the bound
        grid, res = resonance_500
        pot = DilationPotential.alpha_r2_exp(7.5, perturbation_alpha=7.5)
        z_probe = res.z + 0.05 + 0.05j
        gamma_of = {build_scaled(pot, grid, 0.3j, g).bands.main.tobytes(): g for g in (0.0, 0.01)}
        calls = []

        def counted(a, z):
            calls.append(gamma_of[a.main.tobytes()])
            return min_lam(a, z)

        min_lam = scaling.min_lambda
        monkeypatch.setattr(scaling, "min_lambda", counted)
        scan = perturbation_scan(pot, grid, 0.3j, [0.0, 0.01], z_probe, res.z)
        assert calls == [0.0, 0.01]
        assert scan.norms[0] == 1.0 / min_lam(build_scaled(pot, grid, 0.3j).bands, z_probe)[0]

    def test_probe_at_resonance_raises(self, resonance_500):
        # at the resonance min lambda is at rounding level: no norm to report
        grid, res = resonance_500
        pot = DilationPotential.alpha_r2_exp(7.5, perturbation_alpha=7.5)
        with pytest.raises(SingularShiftError):
            perturbation_scan(pot, grid, 0.3j, [0.0], res.z, res.z)

    def test_first_order_slope(self, resonance_500):
        grid, res = resonance_500
        pot = DilationPotential.alpha_r2_exp(7.5, perturbation_alpha=7.5)
        ham = build_scaled(pot, grid, 0.3j)
        _, psi = polish_eigenvalue(ham, res.z)
        w_diag = pot.w(np.exp(0.3j) * grid.points.astype(complex))
        slope_pred = (psi @ (w_diag * psi)) / (psi @ psi)
        g = 1e-3
        z_g = locate_resonance(pot, grid, 0.3j, g, guess=res.z).z
        slope_fd = (z_g - res.z) / g
        assert abs(slope_pred - slope_fd) / abs(slope_pred) < 1e-2

    def test_relative_bound_constants(self, resonance_500):
        grid, _ = resonance_500
        pot = DilationPotential.alpha_r2_exp(7.5, perturbation_alpha=7.5)
        exact = exact_relative_bound(pot, grid, 0.3j)
        assert exact.a == 0.0
        w_sup = np.max(np.abs(pot.w(np.exp(0.3j) * grid.points.astype(complex))))
        assert exact.b == pytest.approx(float(w_sup))
        fitted = fit_relative_bound(pot, grid, 0.3j)
        assert 0.0 <= fitted.a < 1.0
        # bump samples force the fit to see the sup of |w|
        assert fitted.a > 0 or fitted.b > 0.9 * exact.b


class TestNNLS2:
    @pytest.mark.parametrize("active", ["free", "one_clamped", "both_zero"])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 80), log_scale=st.floats(-2.0, 2.0))
    def test_matches_scipy_nnls(self, active, seed, m, log_scale):
        # each target is built from the KKT conditions of its active set
        rng = np.random.default_rng(seed)
        design = rng.uniform(0.0, 1.0, (m, 2)) * np.array([10.0**log_scale, 1.0])
        assume(np.linalg.cond(design) < 1e3)
        q, _ = np.linalg.qr(design, mode="complete")
        perp = q[:, 2:] @ rng.standard_normal(m - 2)  # orthogonal to both columns
        if active == "free":
            target = design @ rng.uniform(0.1, 2.0, 2) + perp
        elif active == "one_clamped":
            j = int(rng.integers(2))
            keep, drop = design[:, j], design[:, 1 - j]
            # a negative multiple of drop's part orthogonal to keep
            away = drop - (drop @ keep) / (keep @ keep) * keep
            target = rng.uniform(0.1, 2.0) * keep - rng.uniform(0.1, 2.0) * away + perp
        else:
            target = -rng.uniform(0.0, 1.0, m)  # nonpositive correlation with both columns
        ref, ref_res = nnls(design, target)
        assert (ref > 0).sum() == {"free": 2, "one_clamped": 1, "both_zero": 0}[active]
        coef = scaling._nnls2(design, target)
        assert np.all(np.abs(coef - ref) <= 1e-10 * np.abs(ref))
        assert np.linalg.norm(design @ coef - target) <= ref_res + 1e-12 * np.linalg.norm(target)
