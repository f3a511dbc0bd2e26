"""csop: norm estimates for complex symmetric operators.

Dense antilinear eigensolvers and Takagi factorization, 1D gapped
Schrodinger discretizations with sharp exponential-decay certificates,
the exact Kronig-Penney comparison, and complex-scaling resonance tools.
The names below load csop.antilinear, and SciPy, on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AntilinearSpectrum",
    "ComplexSymmetricMatrix",
    "Conjugation",
    "TakagiFactorization",
    "antilinear_spectrum",
    "block_embed",
    "minmax_even_lower_check",
    "minmax_norm",
    "real_doubling",
    "resolvent_norm",
    "takagi",
]


def __getattr__(name):
    # a name outside __all__ raises, so `from csop import antilinear` imports the submodule
    if name in __all__:
        return getattr(importlib.import_module(".antilinear", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
