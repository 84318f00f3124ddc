"""Additive MDS codes over F_{q^h}: fields, linearized maps, codes,
projective h-systems, conjugacy-triple counts, and the k = 4 example hunt."""

from .code import (
    DEFAULT_CANDIDATE_BUDGET,
    DEFAULT_CODEWORD_BUDGET,
    AdditiveCode,
    EquivalenceMove,
    InterpolationForm,
    LinearWitness,
    apply_move,
    code_from_dict,
    code_to_dict,
    compose_moves,
    identity_move,
    inverse_move,
    is_mds,
    linear_equivalence_witness,
    min_distance,
    project,
    random_move,
    rs_code,
    to_interpolation_form,
    to_standard_form,
    weight_enumerator,
)
from .errors import (
    AddmdsError,
    BudgetExceeded,
    DimensionMismatch,
    FieldTooSmall,
    InvalidSubfield,
    NonInvertibleMap,
    NotInvertible,
    NotMds,
    NotPrime,
    SpanFailure,
    TowerMismatch,
    TowerTooLarge,
)
from .geometry import (
    ProjectiveHSystem,
    code_from_system,
    desarguesian_block,
    desarguesian_membership,
    is_pseudo_arc,
    project_system,
    system_from_code,
    system_from_dict,
    system_min_distance,
    system_to_dict,
)
from .gf import FieldTower, field_create, field_from_json, field_to_json
from .linpoly import (
    LinearizedPoly,
    all_linearized,
    invertible_linearized,
    random_invertible,
)
from .propm import (
    PropWitness,
    ZeroCoeffCertificate,
    build_zero_coeff_certificate,
    max_prop_m,
    prop_triples,
    twist_to_nonzero_f0,
    verify_inverse_lemma,
    verify_lm_prop_implication,
    verify_semilinear_criterion,
    verify_two_nonzero_lemma,
    verify_zero_coeff_lemma,
    zero_coeff_bound,
)
from .search import (
    K4Example,
    assemble_code,
    base_mds_matrix,
    example_from_dict,
    example_to_dict,
    k4_example_search,
    largest_proper_divisor,
    mds_screen,
    nq_bounds,
    screen_conditions,
    verify_k4_example,
)

__version__ = "0.1.0"
