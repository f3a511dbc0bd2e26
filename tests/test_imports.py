import os
import subprocess
import sys

import csop

PROBE = """
import importlib, pkgutil, sys
import csop, csop.cli
for mod in pkgutil.iter_modules(csop.__path__):
    importlib.import_module("csop." + mod.name)
from csop import antilinear, decay, schrodinger
from csop.kronig_penney import KPModel, band_edges, exact_decay
from csop.scaling import DilationPotential, fit_relative_bound
from csop.schrodinger import Grid1D
model = KPModel(3.0)
exact_decay(model, band_edges(model))
fit_relative_bound(DilationPotential.alpha_r2_exp(7.5, perturbation_alpha=7.5), Grid1D(40.0, 60), 0.3j)
assert all(getattr(csop, name) is getattr(antilinear, name) for name in csop.__all__ if name != "__version__")
assert schrodinger.GapSpectrum is decay.GapSpectrum
print(sorted(name for name in sys.modules if name.startswith("scipy.optimize")))
"""

# decay-bound and kp-fig1 are arithmetic on two band edges: NumPy only
NO_SCIPY_PROBE = """
import os, sys
import csop, csop.cli, csop.decay, csop.kronig_penney
try:
    csop.nosuch
except AttributeError:
    pass
else:
    raise AssertionError("csop.nosuch resolved")
workdir = sys.argv[1]
cfg = os.path.join(workdir, "decay.cfg")
with open(cfg, "w") as fh:
    fh.write("e_minus = 1\\ne_plus = 2\\n")
assert csop.cli.main(["decay-bound", "--config", cfg, "--output", os.path.join(workdir, "decay.csv")]) == 0
assert csop.cli.main(["kp-fig1", "--output", os.path.join(workdir, "fig1.csv")]) == 0
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""

# the map runs sigma_min only: scipy.sparse.linalg is imported by the windowed eigs alone
RESOLVENT_MAP_PROBE = """
import os, sys
import csop.cli
workdir = sys.argv[1]
cfg = os.path.join(workdir, "map.cfg")
with open(cfg, "w") as fh:
    fh.write("n = 200\\nn_re = 2\\nn_im = 2\\n")
assert csop.cli.main(["resolvent-map", "--config", cfg, "--output", os.path.join(workdir, "map.csv")]) == 0
print([name for name in sys.modules if name.startswith("scipy.sparse")])
"""


def _fresh(probe, *args):
    # a fresh interpreter: this test process has imported scipy
    src = os.path.dirname(os.path.dirname(csop.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_no_scipy_optimize_import():
    assert _fresh(PROBE) == "[]"


def test_decay_bound_and_kp_fig1_load_no_scipy(tmp_path):
    assert _fresh(NO_SCIPY_PROBE, str(tmp_path)) == "[]"


def test_antilinear_loads_no_scipy_sparse():
    # the Lanczos engine calls LAPACK itself; only scaling's windowed eigs needs scipy.sparse.linalg
    probe = "import sys, csop.antilinear\nprint([name for name in sys.modules if name.startswith('scipy.sparse')])"
    assert _fresh(probe) == "[]"


def test_resolvent_map_loads_no_scipy_sparse(tmp_path):
    assert _fresh(RESOLVENT_MAP_PROBE, str(tmp_path)) == "[]"
