"""Exact character-degree spectra and average-degree invariants of finite
groups, with catalog-wide verification of the structural statements they
control (normal Sylow subgroups, solvable p-residuals, orbit bounds) and
prime-coverage checks for Lie-type degree formulas."""

from ._version import __version__
from .acd import AcdReport, a_p, acd_p, b_p, ell, format_rational, irr_p_degrees, make_acd_report
from .constructions import (
    BuiltGroup,
    GroupRecipe,
    SplitExtensionData,
    agl1,
    alt,
    build,
    cyclic,
    dihedral,
    direct_product,
    extraspecial,
    frobenius,
    iter_catalog,
    parse_group_spec,
    psl2,
    spectrum_of,
    sym,
)
from .dixon import CLASS_CAP, ClassCountError, DegreeSpectrum, degree_spectrum, dixon_degrees
from .fields import FiniteField, finite_field
from .groups import ClassStructure, GroupTooLargeError, PermGroup, conjugacy_classes
from .liedeg import (
    CoverageResult,
    LieFamilySpec,
    UnsupportedFamilyError,
    Witness,
    WitnessSet,
    cyclotomic,
    default_matrix,
    group_order,
    prime_coverage_check,
    witness_degrees,
)
from .numbers import InvariantError, factorize, is_prime, is_prime_power, prime_divisors, prime_power_decomposition
from .subgroups import (
    SubgroupHandle,
    derived_series,
    derived_subgroup,
    is_normal,
    is_solvable,
    normal_closure,
    normalizer,
    p_residual,
    quotient_group,
    subgroup,
    sylow,
)
from .verify import (
    CheckOutcome,
    GroupFacts,
    VerificationReport,
    VerifyConfig,
    check_ito_michler,
    check_orbit_bound,
    check_p_residual_solvable,
    check_quotient_monotonicity,
    check_sylow_normality,
    run_catalog,
)

__all__ = [name for name in dir() if not name.startswith("_")]
