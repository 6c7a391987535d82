"""Exact spectra and eigenvalue multiplicities of discrete tori.

Exact arithmetic over cyclotomic integers decides eigenvalue equality; on
top of that sit multiplicity tables for discrete tori and abelian Cayley
graphs, vanishing-sum machinery, growth-dichotomy criteria, and spectral
zeta comparisons against the continuum torus.
"""

from .arith import Factorization, factorize, semigroup_member
from .cyclotomic import (
    ApproxReal,
    CycContext,
    CycElt,
    approx_value,
    cos_key,
    cyclotomic_poly,
    get_context,
    key_of_tuple,
    root_power,
    sum_reduce,
)
from .errors import (
    AsymmetricGeneratingSet,
    Bound24Violated,
    BudgetExceeded,
    DtorusError,
    NotApplicable,
    PreconditionViolated,
    ZeroEigenvalue,
    ZeroNotEigenvalue,
)
from .spectrum import (
    DEFAULT_BUDGET,
    CayleySpec,
    Entry,
    SpectrumTable,
    cayley_spectrum,
    cn_spectrum,
    convolve,
    key_multiplicity,
    membership,
    multiplicity_of_tuple,
    torus_spectrum,
)
from .vanishing import (
    Cos4Classification,
    FoundSum,
    RootMultiset,
    classify_cos4,
    cp_delta,
    evertse_bound,
    find_cos4_partners,
    find_vanishing_multiset,
    fmvs_bound,
    is_admissible,
    is_symmetric_rotation,
    is_vanishing,
    minimal_vanishing_sums,
    w_membership,
)
from .criteria import (
    Bound24Report,
    GrowthClass,
    I0Witness,
    Table60Report,
    d2_closed_form,
    eigenvalue_growth,
    in_I0,
    is_zero_eigenvalue,
    lowerbound_pq_witness,
    pq_optimality_check,
    product_inequality_check,
    verify_bound24,
    verify_table60,
    zero_growth,
    zero_lower_bound_family,
)
from .zeta import ZetaRow, ZetaValue, cjk_table, r2_upto, zeta_continuum_partial, zeta_discrete

__version__ = "0.1.0"
