"""Work per resolvent-norm probe as operation counts, which do not drift with host load.

Every banded solve goes through one tridiagonal LU (schrodinger._band_lu,
which scaling imports by name); the spy counts the factorizations made and
the columns their solves take.  A count that does not grow over the ladder
n = 1000, 4000, 16000, beyond one Lanczos step (two solves, one with X^-T
and one with X^-1), makes the probe O(n).  Dense solves are counted as the
LAPACK and BLAS calls SciPy hands out (conftest.patch_lapack): one ?getrf,
and two ?trsv a solve.
"""

import numpy as np
import pytest
import scipy.linalg

from csop import scaling, schrodinger
from csop.antilinear import block_embed, resolvent_norm
from csop.cli import main
from csop.decay import critical_q, qbar_and_ebar
from csop.scaling import (
    DilationPotential,
    build_scaled,
    classify_spectrum,
    polish_eigenvalue,
    resolvent_norm_at,
    sigma_min,
)
from csop.schrodinger import (
    GapSpectrum,
    Grid1D,
    PotentialSpec,
    bq_norm,
    build_hamiltonian,
    gamma_norm,
    resolvent_kernel_scan,
)

from conftest import patch_lapack

ALPHA75 = DilationPotential.alpha_r2_exp(7.5)
RESONANCE_GUESS = 4.0723 - 0.19631j
ARPACK_FLOOR = 21  # solves of one ARPACK cycle at ncv = 20, the least the old engine made
LADDER = (1000, 4000, 16000)
STEP = 2  # solves per Lanczos step


def _within_one_step(counts):
    return max(counts) <= min(counts) + STEP


@pytest.fixture
def solves(monkeypatch):
    """[solved columns, factorizations] of every _band_lu made from here on."""
    count = [0, 0]
    band_lu = schrodinger._band_lu

    def spied(a, shift):
        count[1] += 1
        solve = band_lu(a, shift)

        def counted(b, trans=0):
            count[0] += 1 if np.ndim(b) == 1 else np.shape(b)[1]
            return solve(b, trans)

        return counted

    monkeypatch.setattr(schrodinger, "_band_lu", spied)
    monkeypatch.setattr(scaling, "_band_lu", spied)
    return count


def _sigma_min_solves(solves, n, z, norm=sigma_min):
    """Solves of one sigma_min (or norm) of H_theta at alpha = 7.5, n points; z None is the polished resonance."""
    ham = build_scaled(ALPHA75, Grid1D(40.0, n), 0.3j)
    if z is None:
        z = polish_eigenvalue(ham, RESONANCE_GUESS)[0]
    solves[:] = [0, 0]
    norm(ham, z)
    return solves[0]


@pytest.mark.parametrize("z", [4.1 - 0.15j, None], ids=["probe", "polished_resonance"])
def test_sigma_min_stops_when_converged(solves, z):
    counts = [_sigma_min_solves(solves, n, z) for n in LADDER]
    assert max(counts) < ARPACK_FLOOR
    assert _within_one_step(counts)


def test_slow_point_needs_no_more_than_arpack(solves):
    # sigma_2 / sigma_1 = 1.02 at z = 2.5 - 0.3i: restarts, which ARPACK took 81 solves through
    counts = [_sigma_min_solves(solves, n, 2.5 - 0.3j) for n in LADDER]
    assert max(counts) <= 81
    assert _within_one_step(counts)


@pytest.mark.parametrize("z", [4.1 - 0.15j, 2.5 - 0.3j], ids=["probe", "slow_point"])
def test_resolvent_norm_at_adds_one_solve(solves, z):
    # the antilinear eigenvector psi = x + sigma K x costs one solve more than sigma_min
    counts = [_sigma_min_solves(solves, n, z, resolvent_norm_at) for n in LADDER]
    for n, count in zip(LADDER, counts):
        assert count <= _sigma_min_solves(solves, n, z) + 1
    assert _within_one_step(counts)


def test_default_resolvent_map(solves, tmp_path):
    # 144 points at n = 800; ARPACK made 3094 solves
    assert main(["resolvent-map", "--output", str(tmp_path / "map.csv")]) == 0
    assert solves[0] < 3094


def _polish_counts(solves, n):
    ham = build_scaled(ALPHA75, Grid1D(40.0, n), 0.3j)
    solves[:] = [0, 0]
    polish_eigenvalue(ham, 4.07 - 0.2j)
    return tuple(solves)


def test_polish_eigenvalue_counts_do_not_grow(solves):
    # one factorization and one solve per Rayleigh-quotient step: 3 and 3
    counts = [_polish_counts(solves, n) for n in LADDER]
    assert counts[0] == counts[1] == counts[2]


def test_classify_spectrum_counts_do_not_grow(solves, monkeypatch):
    # one window search (its factorization and ARPACK's solves), then one
    # inverse-iteration factorization and solve per point; the second search
    # at theta + dtheta brought the total to 132 solves
    searches = []
    search = scaling._eigenvalues_in_disc

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(scaling, "_eigenvalues_in_disc", counted)
    solved = []
    for n in LADDER:
        grid = Grid1D(40.0, n)
        h1, h2 = build_scaled(ALPHA75, grid, 0.3j), build_scaled(ALPHA75, grid, 0.32j)
        solves[:] = [0, 0]
        searches.clear()
        cls = classify_spectrum(h1, h2, (0.0, 6.0, -0.5, 0.0))
        assert len(searches) == 1
        assert solves[1] == 1 + len(cls.labels)
        solved.append(solves[0])
    assert solved[0] == solved[1] == solved[2] < 132


def _comb(n):
    """The v0 = 3 comb on n points and the gap above its first band."""
    ham = build_hamiltonian(Grid1D(40.0, n), PotentialSpec.delta_comb(np.arange(1.0, 40.0), 3.0))
    evals = scipy.linalg.eigh_tridiagonal(
        ham.bands.main, ham.bands.sup, eigvals_only=True, select="i", select_range=(0, 40)
    )
    return ham, GapSpectrum(e_minus=float(evals[39]), e_plus=float(evals[40]), e_bottom=float(evals[0]))


def _gamma_norm_counts(solves, n):
    """gamma_norm on the v0 = 3 comb in the gap above its first band, at q = 0.9 q_c(Ebar)."""
    ham, gap = _comb(n)
    _, ebar, _ = qbar_and_ebar(gap)
    q = 0.9 * critical_q(gap, ebar)
    solves[:] = [0, 0]
    gamma_norm(ham, q, ebar - q * q, gap)
    return tuple(solves)


def test_gamma_norm_counts_do_not_grow(solves):
    # one factorization; each Lanczos step on (M^T M)^-1 solves with M^T and M.
    # The ceiling sits below the 40-42 solves of Lanczos on the 2n doubling
    counts = [_gamma_norm_counts(solves, n) for n in LADDER]
    assert all(factorizations == 1 for _, factorizations in counts)
    solved = [columns for columns, _ in counts]
    assert max(solved) <= 24
    assert _within_one_step(solved)


@pytest.fixture
def right_hand_sides(monkeypatch):
    """The shapes solved by each schrodinger._band_lu made from here on, one list per factorization."""
    made = []
    band_lu = schrodinger._band_lu

    def spied(a, shift):
        solve, shapes = band_lu(a, shift), []
        made.append(shapes)

        def recorded(b, trans=0):
            shapes.append(np.shape(b))
            return solve(b, trans)

        return recorded

    monkeypatch.setattr(schrodinger, "_band_lu", spied)
    return made


@pytest.mark.parametrize("n", LADDER)
def test_kernel_scan_and_bq_norm_make_one_block_solve(right_hand_sides, n):
    # one factorization of H - E and one n x k solve: k separations, or the k states below E + q^2
    ham, gap = _comb(n)
    _, ebar, _ = qbar_and_ebar(gap)
    resolvent_kernel_scan(ham, ebar, [4.0, 8.0, 12.0], 0.5)
    assert right_hand_sides == [[(n, 3)]]
    right_hand_sides.clear()
    q = 0.5 * critical_q(gap, ebar)
    states = ham.eigensystem(ebar + q * q)[0].size
    bq_norm(ham, gap, q, ebar)
    assert states > 1 and right_hand_sides == [[(n, states)]]


def test_block_embedding_resolvent_norm_halves_getrs(monkeypatch):
    # resolvent_norm(*block_embed(M)) factors the n x n block X once and
    # solves with X^T and X per step, each solve two ?trsv; Lanczos on the
    # 4n doubling took 34 solves (then ?getrs) here
    rng = np.random.default_rng(30)
    m = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    calls = {"getrf": 0, "trsv": 0}

    def wrap(name, routine):
        def counted(*args, **kwargs):
            if name in calls:
                calls[name] += 1
            return routine(*args, **kwargs)

        return counted

    patch_lapack(monkeypatch, wrap)
    norm = resolvent_norm(*block_embed(m), 0.3 - 0.2j)
    assert norm == pytest.approx(1.0 / np.linalg.svd(m - (0.3 - 0.2j) * np.eye(30), compute_uv=False)[-1],
                                 rel=1e-12)
    assert calls["getrf"] == 1
    assert calls["trsv"] % 2 == 0 and calls["trsv"] // 2 <= 34 // 2 + 1
