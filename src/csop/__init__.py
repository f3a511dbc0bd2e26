"""csop: norm estimates for complex symmetric operators.

Dense antilinear eigensolvers and Takagi factorization, 1D gapped
Schrodinger discretizations with sharp exponential-decay certificates,
the exact Kronig-Penney comparison, and complex-scaling resonance tools.
"""

__version__ = "0.1.0"

from .antilinear import (
    AntilinearSpectrum,
    ComplexSymmetricMatrix,
    Conjugation,
    TakagiFactorization,
    antilinear_spectrum,
    block_embed,
    minmax_even_lower_check,
    minmax_norm,
    real_doubling,
    resolvent_norm,
    takagi,
)

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
