"""permlab: a numerical laboratory for permanental kernels, Levy and
diffusion potential densities, geometric-grid M-matrix decompositions,
chi-square sampling, and local times of rebirthed finite chains."""

from .exponents import CharExponent, exponent_from_spec
from .potentials import (LevyPotential, check_sigma2_asymptotics,
                         regular_variation_constant)
from .quadrature import QuadratureConfig, QuadratureError
from .expressions import Affine, Const, Exp, Expr, Pow, Prod, Sum, expr_from_spec
from .diffusion import (PQPotential, ScalePotential, riesz_reconstruct,
                        wronskian_defect)
from .bases import (ExpDecayBase, HitZeroLevyBase, LevyBase, PQBase,
                    ScaleMinBase, StableHitZeroBase, VBetaBase, VPQBase,
                    brownian_min_kernel, brownian_unit_base)
from .excessive import (AtomicPotential, ConstantExcessive, IndicatorPotential,
                        ScaleConcaveExcessive, excessive_from_spec,
                        gram_surrogate_min, make_flat_pair)
from .kernel_algebra import (AugmentedKernel, Decomposition, GridError,
                             GridSpec, assemble_kernel, decompose,
                             min_kernel_inverse, rowsum_residuals)
from .sampling import (laplace_check, lil_harness, philox,
                       sample_chi_square, sample_isymi_representation,
                       sandwich_check, trend_is_nondecreasing)
from .rebirth import (FiniteChain, FullRebirthModel, PartialRebirthModel,
                      chain_from_spec,
                      ek_identity_check, full_rebirth_potential,
                      partial_rebirth_potential, potential_from_spec)
from .verify import CRITERIA, SUITES, run_suite

__version__ = "0.1.0"
