import os
import subprocess
import sys

import csop

PROBE = """
import importlib, pkgutil, sys
import csop, csop.cli
for mod in pkgutil.iter_modules(csop.__path__):
    importlib.import_module("csop." + mod.name)
from csop.kronig_penney import KPModel, band_edges, exact_decay
from csop.scaling import DilationPotential, fit_relative_bound
from csop.schrodinger import Grid1D
model = KPModel(3.0)
exact_decay(model, band_edges(model))
fit_relative_bound(DilationPotential.alpha_r2_exp(7.5, perturbation_alpha=7.5), Grid1D(40.0, 60), 0.3j)
print(sorted(name for name in sys.modules if name.startswith("scipy.optimize")))
"""


def test_no_scipy_optimize_import():
    # a fresh interpreter: this test process may have imported scipy.optimize
    src = os.path.dirname(os.path.dirname(csop.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
