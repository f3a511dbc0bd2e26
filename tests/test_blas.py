import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import csop
from csop import _blas
from csop._blas import one_blas_thread
from csop.antilinear import (
    antilinear_spectrum,
    block_embed,
    minmax_even_lower_check,
    minmax_norm,
    resolvent_norm,
    takagi,
)
from csop.cli import main, save_matrix_csv
from csop.scaling import (
    DilationPotential,
    build_scaled,
    essential_floor_check,
    locate_resonance,
    resolvent_norm_at,
    sigma_min,
)
from csop.schrodinger import (
    Grid1D,
    PotentialSpec,
    bq_norm,
    build_hamiltonian,
    find_gap,
    gamma_norm,
    projector_decay,
    resolvent_kernel_scan,
)
from conftest import random_complex_symmetric

LIBS = _blas._libraries()
needs_openblas = pytest.mark.skipif(
    not LIBS, reason="no scipy-openblas with thread-count symbols bundled in numpy.libs or scipy.libs"
)
needs_switch = pytest.mark.skipif(
    not LIBS or "OPENBLAS_NUM_THREADS" in os.environ,
    reason="needs a bundled scipy-openblas and OPENBLAS_NUM_THREADS unset (else the context is a no-op)",
)


def counts():
    return [get() for get, _ in LIBS]


@pytest.fixture
def two_threads():
    """Both libraries at two threads for the test, so one thread inside the context shows."""
    saved = counts()
    for _, set_ in LIBS:
        set_(2)
    if counts() != [2] * len(LIBS):
        pytest.skip("this OpenBLAS cannot run two threads")
    yield [2] * len(LIBS)
    for (_, set_), count in zip(LIBS, saved):
        set_(count)


@needs_switch
class TestContext:
    def test_restores_after_exit_and_exception(self, two_threads):
        with one_blas_thread:
            assert counts() == [1] * len(LIBS)
        assert counts() == two_threads
        with pytest.raises(RuntimeError):
            with one_blas_thread:
                assert counts() == [1] * len(LIBS)
                raise RuntimeError("inside")
        assert counts() == two_threads

    def test_nested_entry_restores_at_outermost_exit(self, two_threads):
        @one_blas_thread
        def inner():
            return counts()

        with one_blas_thread:
            assert inner() == [1] * len(LIBS)
            assert counts() == [1] * len(LIBS)
        assert counts() == two_threads
        assert inner() == [1] * len(LIBS) and counts() == two_threads


@needs_openblas
def test_user_thread_count_wins():
    probe = ("from csop._blas import _libraries, one_blas_thread\n"
             "with one_blas_thread:\n    print(*(get() for get, _ in _libraries()))\n")
    src = os.path.dirname(os.path.dirname(csop.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["2"] * len(LIBS)


def test_no_library_found_is_a_noop(monkeypatch):
    monkeypatch.setattr(_blas, "_libraries", lambda: [])
    monkeypatch.setattr(one_blas_thread, "_controls", None)
    before = counts()
    with one_blas_thread:
        assert counts() == before
    assert counts() == before


@pytest.fixture
def lapack_spy(monkeypatch):
    """(routine, thread counts) of every BLAS, LAPACK and ARPACK call that csop makes."""
    seen = []

    def spied(f):
        routine = f.__name__.split()[-1]  # f2py names its routines "function zgttrs"

        def call(*args, **kwargs):
            seen.append((routine, counts()))
            return f(*args, **kwargs)
        return call

    def spied_get(real_get):  # one name gives one routine, a tuple of names a list
        def get(names, *args, **kwargs):
            funcs = real_get(names, *args, **kwargs)
            return spied(funcs) if isinstance(names, str) else [spied(f) for f in funcs]
        return get

    for module, name in ((scipy.linalg.lapack, "get_lapack_funcs"), (scipy.linalg.blas, "get_blas_funcs")):
        monkeypatch.setattr(module, name, spied_get(getattr(module, name)))
    for module, name in ((scipy.linalg, "eigh"), (scipy.linalg, "eigh_tridiagonal"),
                         (scipy.linalg, "eig_banded"), (scipy.linalg, "svd"), (scipy.linalg, "svdvals"),
                         (scipy.sparse.linalg, "eigs"), (np.linalg, "eigvals")):
        monkeypatch.setattr(module, name, spied(getattr(module, name)))
    return seen


ALPHA75 = DilationPotential.alpha_r2_exp(7.5)


def _comb():
    return build_hamiltonian(Grid1D(40.0, 600), PotentialSpec.delta_comb(np.arange(1.0, 40.0), 3.0))


@pytest.fixture(scope="module")
def operators():
    """A comb Hamiltonian with its gap (eigensystem cached), and H_theta at alpha = 7.5."""
    ham = _comb()
    return ham, find_gap(ham, energy_ceiling=35.0), build_scaled(ALPHA75, Grid1D(40.0, 300), 0.3j)


TRIDIAGONAL = {
    "find_gap": lambda ham, gap, h: find_gap(_comb(), energy_ceiling=35.0),
    "gamma_norm": lambda ham, gap, h: gamma_norm(ham, 0.3, 13.0, gap),
    "bq_norm": lambda ham, gap, h: bq_norm(ham, gap, 0.3, 13.0),
    "resolvent_kernel_scan": lambda ham, gap, h: resolvent_kernel_scan(ham, 13.0, [4.0, 8.0], 0.5),
    "projector_decay": lambda ham, gap, h: projector_decay(_comb(), gap, 0.5, np.arange(8.0, 25.0, 2.0)),
    "resolvent_norm_at": lambda ham, gap, h: resolvent_norm_at(h, 4.1 - 0.15j),
    "sigma_min": lambda ham, gap, h: sigma_min(h, 4.1 - 0.15j),
    "essential_floor_check": lambda ham, gap, h: essential_floor_check(h, 4.0823 - 0.19631j),
    "locate_resonance": lambda ham, gap, h: locate_resonance(ALPHA75, h.grid, 0.3j, window=(0.0, 6.0, -0.5, 0.0)),
}

A = random_complex_symmetric(40, np.random.default_rng(0))
DENSE = {
    "antilinear_spectrum": lambda: antilinear_spectrum(A, z=0.3 - 0.7j),
    "takagi": lambda: takagi(A),
    "resolvent_norm": lambda: resolvent_norm(A, z=0.3 - 0.7j),
    "resolvent_norm_block_embed": lambda: resolvent_norm(*block_embed(A), z=0.3 - 0.7j),
    "minmax_norm": lambda: minmax_norm(A),
    "block_embed": lambda: antilinear_spectrum(*block_embed(A)),
    "minmax_even_lower_check": lambda: minmax_even_lower_check(A, 3, trials=2),
    "ScaledHamiltonian.eigenvalues": lambda: build_scaled(ALPHA75, Grid1D(40.0, 60), 0.3j).eigenvalues(),
}


# the solve and the Gram-Schmidt BLAS behind each Lanczos step of the resolvent-norm engine
LANCZOS_STEP = {"gamma_norm": {"dgttrs", "dgemv"}, "resolvent_norm_at": {"zgttrs", "zgemv"},
                "sigma_min": {"zgttrs", "zgemv"}, "resolvent_norm": {"ztrsv", "zgemv"},
                "resolvent_norm_block_embed": {"ztrsv", "zgemv"}}


def _assert_one_thread(spied, name):
    assert spied and all(seen == [1] * len(LIBS) for _, seen in spied)
    assert LANCZOS_STEP.get(name, set()) <= {routine for routine, _ in spied}


@needs_switch
@pytest.mark.parametrize("name", TRIDIAGONAL)
def test_tridiagonal_paths_run_lapack_on_one_thread(name, operators, two_threads, lapack_spy):
    TRIDIAGONAL[name](*operators)
    _assert_one_thread(lapack_spy, name)
    assert counts() == two_threads


@needs_switch
@pytest.mark.parametrize("name", DENSE)
def test_dense_paths_run_lapack_on_one_thread(name, two_threads, lapack_spy):
    DENSE[name]()
    _assert_one_thread(lapack_spy, name)
    assert counts() == two_threads


@needs_switch
def test_concurrent_entries_restore_the_counts(two_threads):
    # more threads than cores, switching often: a lost update of the depth
    # would leave one thread behind or restore inside another thread's entry
    def work():
        for _ in range(300):
            with one_blas_thread:
                assert counts() == [1] * len(LIBS)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert one_blas_thread._depth == 0 and counts() == two_threads


@needs_switch
@pytest.mark.parametrize("subcommand, shift", [("takagi", ""), ("antilinear", "z_re = 0.3\nz_im = -0.7\n")],
                         ids=["takagi", "antilinear"])
def test_dense_cli_bytes_do_not_depend_on_the_thread_count(subcommand, shift, tmp_path, two_threads):
    save_matrix_csv(str(tmp_path / "m.csv"), random_complex_symmetric(120, np.random.default_rng(60)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"matrix = {tmp_path / 'm.csv'}\n{shift}")
    written = []
    for threads in (1, 2):
        for _, set_ in LIBS:
            set_(threads)
        out = tmp_path / f"{threads}.csv"
        assert main([subcommand, "--config", str(cfg), "--output", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


@needs_switch
def test_takagi_residual_runs_on_one_thread(tmp_path, two_threads, monkeypatch):
    # the reconstruction residual's norm of an n x n difference is BLAS work too;
    # on two threads its workers spin on after the run
    save_matrix_csv(str(tmp_path / "m.csv"), random_complex_symmetric(200, np.random.default_rng(61)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"matrix = {tmp_path / 'm.csv'}\n")
    seen = []
    norm = np.linalg.norm

    def spied(*args, **kwargs):
        seen.append(counts())
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spied)
    assert main(["takagi", "--config", str(cfg), "--output", str(tmp_path / "out.csv")]) == 0
    assert seen and all(threads == [1] * len(LIBS) for threads in seen)
    assert counts() == two_threads


@needs_switch
@pytest.mark.parametrize("subcommand, config", [("resolvent-map", "n = 4000\n"), ("resonance", "")],
                         ids=["resolvent-map-4000", "resonance"])
def test_lanczos_cli_bytes_do_not_depend_on_the_thread_count(subcommand, config, tmp_path, two_threads):
    # the Lanczos Gram-Schmidt runs complex BLAS-2 (zgemv) on its basis, and
    # one thread inside the engine keeps the bytes whatever the pools start at
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    written = []
    for threads in (1, 2):
        for _, set_ in LIBS:
            set_(threads)
        out = tmp_path / f"{threads}.csv"
        assert main([subcommand, "--config", str(cfg), "--output", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
