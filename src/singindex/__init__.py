"""Exact computation of indices of singular points of vector fields and
1-forms: colength indices on smooth space, signature indices of real
germs, minors-ideal indices on complete intersections, Moebius-inversion
index conversions on stratified varieties, and Burnside-ring valued
equivariant indices."""

from .errors import (
    DegreeCapError,
    GenericityError,
    InternalCheckError,
    NotIsolatedError,
    RejectedInputError,
    SingindexError,
)
from .grobner import (
    INFINITE,
    Ideal,
    QuotientAlgebra,
    colength,
    is_zero_dimensional,
    quotient_algebra,
    standard_basis,
)
from .linalg import symmetric_signature
from .poly import (
    GLOBAL_ORDER,
    LOCAL_ORDER,
    MonomialOrder,
    Polynomial,
    jacobian_det,
    jacobian_matrix,
    minors,
    parse_polynomial,
)
from .smooth import (
    ELKForm,
    GroupAction,
    OneFormGerm,
    SectionCollection,
    VectorFieldGerm,
    collection_index,
    complex_form_index,
    elk_form,
    elk_index,
    invariant_dimension,
    invariant_signature,
    invariant_values,
    palamodov_index,
    realify,
)
from .icis import (
    ICISGerm,
    gsv_ideal,
    gsv_index_1form,
    gsv_index_collection,
    homological_index_1form,
    isolatedness_certificate,
    milnor_number,
    radial_index_1form,
    radial_index_vf_from_gsv,
)
from .strat import (
    IndexVector,
    SliceData,
    StratPoset,
    det_m,
    det_n,
    eu_from_radial,
    mobius_inverse,
    phn_from_radial,
    proportionality_check,
    radial_from_eu,
    radial_from_phn,
)
from .burnside import (
    BurnsideElement,
    PermutationGroup,
    SubgroupClass,
    burnside_mul,
    equivariant_euler,
    equivariant_gsv_from_radial,
    equivariant_ph_check,
    equivariant_radial_index,
    induction,
    r0,
    restriction,
    subgroup_as_group,
)
from .jobs import Report, run_job, validate

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
