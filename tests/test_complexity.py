"""Work per resolvent-norm probe as operation counts, which do not drift with host load.

Every banded solve goes through one tridiagonal LU (schrodinger._band_lu,
which scaling imports by name); the spy counts the factorizations made and
the columns their solves take.  A count that does not grow from n = 1000 to
n = 16000 makes the probe O(n).
"""

import numpy as np
import pytest
import scipy.linalg

from csop import scaling, schrodinger
from csop.cli import main
from csop.decay import critical_q, qbar_and_ebar
from csop.scaling import DilationPotential, build_scaled, polish_eigenvalue, sigma_min
from csop.schrodinger import GapSpectrum, Grid1D, PotentialSpec, build_hamiltonian, gamma_norm

ALPHA75 = DilationPotential.alpha_r2_exp(7.5)
RESONANCE_GUESS = 4.0723 - 0.19631j
ARPACK_FLOOR = 21  # solves of one ARPACK cycle at ncv = 20, the least the old engine made


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


def _sigma_min_solves(solves, n, z):
    """Solves of one sigma_min of H_theta at alpha = 7.5, n points; z None is the polished resonance."""
    ham = build_scaled(ALPHA75, Grid1D(40.0, n), 0.3j)
    if z is None:
        z = polish_eigenvalue(ham, RESONANCE_GUESS)[0]
    solves[:] = [0, 0]
    sigma_min(ham, z)
    return solves[0]


@pytest.mark.parametrize("z", [4.1 - 0.15j, None], ids=["probe", "polished_resonance"])
def test_sigma_min_stops_when_converged(solves, z):
    counts = [_sigma_min_solves(solves, n, z) for n in (1000, 16000)]
    assert max(counts) < ARPACK_FLOOR
    assert counts[1] <= counts[0] + 1


def test_slow_point_needs_no_more_than_arpack(solves):
    # sigma_2 / sigma_1 = 1.02 at z = 2.5 - 0.3i: restarts, which ARPACK took 81 solves through
    assert all(_sigma_min_solves(solves, n, 2.5 - 0.3j) <= 81 for n in (1000, 16000))


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
    assert _polish_counts(solves, 1000) == _polish_counts(solves, 16000)


def _gamma_norm_counts(solves, n):
    """gamma_norm on the v0 = 3 comb in the gap above its first band, at q = 0.9 q_c(Ebar)."""
    ham = build_hamiltonian(Grid1D(40.0, n), PotentialSpec.delta_comb(np.arange(1.0, 40.0), 3.0))
    evals = scipy.linalg.eigh_tridiagonal(
        ham.bands.main, ham.bands.sup, eigvals_only=True, select="i", select_range=(0, 40)
    )
    gap = GapSpectrum(e_minus=float(evals[39]), e_plus=float(evals[40]), e_bottom=float(evals[0]))
    _, ebar, _ = qbar_and_ebar(gap)
    q = 0.9 * critical_q(gap, ebar)
    solves[:] = [0, 0]
    gamma_norm(ham, q, ebar - q * q, gap)
    return tuple(solves)


def test_gamma_norm_counts_do_not_grow(solves):
    # one factorization; each Lanczos step solves with M and M^T: 40 columns
    assert _gamma_norm_counts(solves, 1000) == _gamma_norm_counts(solves, 16000)
