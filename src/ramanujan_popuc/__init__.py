"""Exact construction of finite para-orthogonal polynomial families on the
unit circle whose trigonometric moments are normalized Ramanujan sums,
together with their mirror-dual Sturmian families, closed-form fixtures,
and exact/numeric verification of all the identities connecting them."""

from .closed_forms import (
    cf_ramanujan_2p,
    cf_ramanujan_anti2p,
    cf_ramanujan_prime,
    cf_single_moment,
    cf_sturmian_anti2p,
)
from .duality import (
    DualPair,
    WeightReport,
    build_dual_pair,
    mirror_dual,
    numeric_roots,
    ramanujan_from_charpoly,
    sturmian_from_charpoly,
    verify_weights,
)
from .errors import (
    DegreeBoundError,
    DualityViolationError,
    DuplicateOrderError,
    InsufficientMomentsError,
    InteriorCoefficientOutOfRangeError,
    InternalInconsistencyError,
    InvalidCharacteristicError,
    InvalidModulusError,
    InvalidPayloadError,
    NonPrimeError,
    NonzeroRemainderError,
    PopucError,
    SingularMomentError,
    TerminalMassError,
    UnimodularConstantTermError,
    WeightCheckFailureError,
)
from .number_theory import (
    RamanujanTable,
    euler_totient,
    is_odd_prime,
    mobius,
    ramanujan_sum_direct,
    ramanujan_sum_fast,
    ramanujan_table,
)
from .opuc_core import (
    MomentSequence,
    PopucSystem,
    VerblunskySequence,
    determinant_formula_poly,
    gram_matrix,
    inner_product,
    inverse_szego_step,
    leading_toeplitz_minors,
    moments_from_cyclotomic,
    moments_from_kronecker,
    moments_from_ladder,
    moments_from_power_sums,
    popuc_from_moments,
    szego_step,
    toeplitz_det,
)
from .polynomials import (
    KroneckerSpec,
    Poly,
    anti_cyclotomic,
    cyclotomic,
    kronecker_poly,
)

__version__ = "0.1.0"
