"""Euler-angle coordinates and Bures measures for 2- and 3-state density matrices.

The package maps (n^2 - 1)-dimensional rectangular angle coordinates onto
density matrices, evaluates the Bures coordinate density (eigenvalue-simplex
factor times the invariant coset density of the truncated Euler product),
integrates functionals against the normalized measure, and draws samples
from it with reproducible counter-based streams (Bures-distributed for n=2;
for n=3 the paper's coordinate box counts some spectra twice).

The public names load on first use (PEP 562), so ``import bures`` does not
import numpy; ``python -m bures`` relies on that to set numpy's thread count
before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in {
    "generators": ("GeneratorSet", "gell_mann", "generator_set", "pauli"),
    "linalg": ("NonHermitianError", "expm_i_generator"),
    "kernels": ("THETA2_MAX", "coset_normalization_constant", "normalization_constant"),
    "euler": ("AngleRangeError", "CosetAngles", "DensityMatrixParams",
              "EigenvalueAngles", "Inverse2Result", "NotADensityMatrixError",
              "coset_unitary", "density_from_params", "diag_eigenvalues",
              "euler_unitary", "params_from_density_2", "params_from_values",
              "validate_density"),
    "measure": ("bures_joint_density", "eigenvalue_jacobian", "haar_coset_density",
                "hall_density"),
    "functionals": ("FunctionalId", "FunctionalKind", "eigenvalue_moment",
                    "purity", "von_neumann_entropy"),
    "tensorgrid": ("tensor_quadrature",),
    "integration": ("IntegrationResult", "integrate", "integrate_mc"),
    "sampling": ("EnvelopeViolationError", "sample"),
}.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
