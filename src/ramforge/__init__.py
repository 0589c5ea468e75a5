"""Exact-arithmetic toolkit for ramification breaks of power-series
substitution groups, piecewise-linear transfer functions, truncated
valuation rings, and p-adic dynamics."""

from .errors import InvariantError, PrecisionError, RamforgeError, SenViolationError
from .gfseries import (
    FFElem,
    FiniteField,
    TruncSeries,
    frobenius_twist,
)
from .herbrand import (
    BreakData,
    BreaksVerdict,
    PLFunc,
    YHZ,
    extract_yhz,
    lower_break_formula,
    phi_from_breaks,
    pl_compose,
    psi_from_breaks,
    psi_ie_formula,
    tame_phi,
    tame_psi,
    validate_breaks,
)
from .nottingham import (
    AtLeast,
    IndexReport,
    RamSequence,
    compose_power,
    conjugate,
    depth,
    index_of,
    lower_breaks,
    p_chain,
    p_iterate,
    series_agree_mod,
    subgroup_equal_mod,
    unit_part,
    upper_from_lower,
)
from .pdyn import (
    DividedSeries,
    DynamicsReport,
    ExtQuantities,
    LevelReport,
    NewtonPolygon,
    PadicSeries,
    analyze,
    ext_quantities,
    newton_polygon,
    pad_compose,
    pad_iterate,
    qn_divide,
    reduce_mod_p,
    rn_values,
    weierstrass_degree,
)
from .ramcheck import (
    ConditionReport,
    TameParams,
    TheoremInputs,
    check_conditions,
    f_shift,
    f_shift_sum_check,
    g_floor,
    m0,
    proot_check,
    psi_ML_lower_bound,
    q_r_values,
    tame_params,
)
from .truncation import (
    TruncMorphism,
    TruncObject,
    compose_morphism,
    identity_morphism,
    is_extension,
    is_isomorphism,
    r_equivalent,
)

__version__ = "0.1.0"
