import numpy as np
import pytest
import scipy.linalg

from csop.schrodinger import Grid1D, PotentialSpec, build_hamiltonian, find_gap


def random_complex_symmetric(n, rng, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.T)


def free_eigenvalues(length, n):
    """The eigenvalues (4 / h^2) sin^2(k pi / (2 (n + 1))), k = 1..n, of -Lap_h on [0, length], h = length / (n + 1), ascending."""
    h = length / (n + 1)
    return (4.0 / (h * h)) * np.sin(np.arange(1, n + 1) * (np.pi / (2 * (n + 1)))) ** 2


def patch_lapack(monkeypatch, wrap):
    """Hand out every LAPACK and BLAS routine that SciPy gives csop or eigh_tridiagonal from here on as wrap(name, routine).

    The wrapping sits outside SciPy's memo of looked-up routines, so nothing
    of it outlives the test."""
    def wrapped(real):
        def get(names, *args, **kwargs):
            funcs = real(names, *args, **kwargs)
            return wrap(names, funcs) if isinstance(names, str) else [wrap(*pair) for pair in zip(names, funcs)]
        return get

    get_lapack = wrapped(scipy.linalg.lapack.get_lapack_funcs)
    for module in (scipy.linalg.lapack, scipy.linalg._decomp):
        monkeypatch.setattr(module, "get_lapack_funcs", get_lapack)
    monkeypatch.setattr(scipy.linalg.blas, "get_blas_funcs", wrapped(scipy.linalg.blas.get_blas_funcs))


@pytest.fixture(scope="session")
def kp_grid_2000():
    """Kronig-Penney comb v0 = 3 on L = 40 with n = 2000, eigensystem cached.

    Shared by the schrodinger tests and the acceptance suite; the eigh runs
    once per session.
    """
    grid = Grid1D(length=40.0, n=2000)
    pot = PotentialSpec.delta_comb(np.arange(1.0, 40.0), 3.0)
    ham = build_hamiltonian(grid, pot)
    ham.eigensystem()
    gap = find_gap(ham, energy_ceiling=35.0)
    return ham, gap
