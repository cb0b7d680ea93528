"""Ext^1 between characters of a Borel subgroup and between principal
series representations of GL_n(F_q), verified against a brute-force
group-cohomology oracle at desk scale."""

from .chars import (
    TorusChar,
    TwistWitness,
    all_chars,
    eigencharacters,
    evaluate,
    frobenius_twist,
    match_simple_root_twist,
    match_theorem1_condition,
    simple_root,
    trivial_char,
    weyl_twist,
)
from .cohom import Cocycle, H1Result, h1_dim
from .field import FieldCtx, FieldError, make_field
from .gmodule import (
    FpModule,
    abelian_quotient_with_torus_action,
    char_module,
    char_modules_isomorphic,
    det_char_module,
    fq_hom_module,
    hom_module,
    induced_module,
    restrict,
    trivial_module,
)
from .group import (
    Mat,
    MatrixGroup,
    SizeBudgetError,
    WeylElement,
    build_borel,
    build_gl,
    build_torus,
    build_unipotent,
    commutator_subgroup,
    intersect_conjugate,
    unipotent_part,
    weyl_elements,
)
from .verify import ExtReport, VerifyConfig, get_instance, run_all, run_statement

__version__ = "0.1.0"
