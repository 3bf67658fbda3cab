"""Exact censuses of matrices over finite fields.

Computes invariant factors of rectangular linear pencils x*I - B over GF(q)
via the Smith normal form, evaluates the closed-form counting formulas for
every census the pencil classification induces (similarity classes,
invariant-factor tuples, reachability ranks, characteristic-polynomial
fibers, nilpotent extendability), and verifies each formula against an
independent brute-force enumeration at desk scale.
"""

from .census import (
    CensusReport,
    centralizer_factor,
    check_q_identity,
    conjugate,
    count_char_poly_rect,
    count_char_poly_square,
    count_given_u,
    count_invariant_factors,
    count_nilpotent_extendable,
    count_reachability,
    count_with_subspace,
    exponent_profile,
    gl_order,
    q_binomial,
)
from .gf import FieldCtx, field_new, parse_field_spec
from .oracle import DiffReport, EnumConfig, verify
from .polyring import Poly, factorize, irreducibles_up_to, parse_poly, poly_gcd
from .smith import (
    InvariantFactorTuple,
    char_poly,
    det_divisor,
    max_invariant_subspace,
    pencil_invariant_factors,
    reachability_rank,
    snf,
)

__version__ = "0.1.0"
