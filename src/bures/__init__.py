"""Euler-angle coordinates and Bures measures for 2- and 3-state density matrices.

The package maps (n^2 - 1)-dimensional rectangular angle coordinates onto
density matrices, evaluates the Bures coordinate density (eigenvalue-simplex
factor times the invariant coset density of the truncated Euler product),
integrates functionals against the normalized measure, and draws samples
from it with reproducible counter-based streams (Bures-distributed for n=2;
for n=3 the paper's coordinate box counts some spectra twice).
"""

from .generators import GeneratorSet, gell_mann, generator_set, pauli
from .linalg import (HermitianEigenResult, NonHermitianError, dagger,
                     eig_hermitian, expm_i_generator, matmul, trace)
from .euler import (THETA2_MAX, AngleRangeError, CosetAngles, DensityMatrixParams,
                    EigenvalueAngles, Inverse2Result, NotADensityMatrixError,
                    coset_unitary, density_from_params, diag_eigenvalues,
                    euler_unitary, params_from_density_2, params_from_values,
                    validate_density)
from .measure import (MeasureValue, NormalizationMode, bures_joint_density,
                      coset_normalization_constant, eigenvalue_jacobian,
                      haar_coset_density, hall_density, normalization_constant)
from .functionals import (FunctionalId, FunctionalKind, eigenvalue_moment,
                          purity, von_neumann_entropy)
from .tensorgrid import QuadratureSpec, tensor_quadrature
from .integrate import IntegrationResult, integrate, integrate_mc
from .sampling import EnvelopeViolationError, SampleBatch, SamplerSpec, sample

__version__ = "0.1.0"

__all__ = [
    "AngleRangeError", "CosetAngles", "DensityMatrixParams", "EigenvalueAngles",
    "EnvelopeViolationError", "FunctionalId", "FunctionalKind", "GeneratorSet",
    "HermitianEigenResult", "IntegrationResult", "Inverse2Result", "MeasureValue",
    "NonHermitianError", "NormalizationMode", "NotADensityMatrixError",
    "QuadratureSpec", "SampleBatch", "SamplerSpec", "THETA2_MAX",
    "bures_joint_density", "coset_normalization_constant", "coset_unitary",
    "dagger", "density_from_params", "diag_eigenvalues", "eig_hermitian",
    "eigenvalue_jacobian", "eigenvalue_moment", "euler_unitary",
    "expm_i_generator", "gell_mann", "generator_set", "haar_coset_density",
    "hall_density", "integrate", "integrate_mc", "matmul",
    "normalization_constant", "params_from_density_2", "params_from_values",
    "pauli", "purity", "sample", "tensor_quadrature", "trace",
    "validate_density", "von_neumann_entropy",
]
