"""Nested mixed norms, sup norms and ratio certificates for real
multilinear forms, plus the Khinchin and Rademacher-cotype constants the
associated inequalities are built from.

Everything is exact at desk scale: sup norms come from full sign-vertex
enumeration, Rademacher averages from full sign-pattern enumeration, and
mixed norms from finite sums in one vectorised kernel, so the classical
constants (sqrt 2 baselines, Littlewood's 4/3 ratio, the cotype constant
of l_r) are reproduced to near machine precision by concrete witnesses.
"""

from ._version import VERSION as __version__
from .constants import (
    InterpolationResult,
    KhinchinValue,
    bh_upper_bound,
    equivalence_gap,
    interpolate,
    khinchin_A,
    solve_p0,
    sqrt2_baseline,
)
from .cotype import (
    CotypeBounds,
    CotypeInstance,
    bilinear_cotype_certificate,
    cotype_bounds,
    cotype_ratio,
    extremal_instance,
    instance_from_dict,
    load_instance,
    make_instance,
    rademacher_average,
)
from .forms import (
    CATALOG,
    MultilinearForm,
    SupNormResult,
    evaluate,
    form_from_dict,
    form_to_dict,
    lift,
    littlewood2,
    load_form,
    permute_slots,
    random_sign_form,
    save_form,
    sup_norm,
    triple221,
)
from .mixed_norms import (
    ExponentTuple,
    RaggedBlockWarning,
    admissible,
    bh_exponents,
    minkowski_compare,
    mixed_norm,
)
from .search import (
    EquivalenceReport,
    RatioCertificate,
    certify,
    equivalence_demo,
    growth_witness,
    optimize_ratio,
)

__all__ = [
    "__version__",
    "CATALOG",
    "CotypeBounds",
    "CotypeInstance",
    "EquivalenceReport",
    "ExponentTuple",
    "InterpolationResult",
    "KhinchinValue",
    "MultilinearForm",
    "RaggedBlockWarning",
    "RatioCertificate",
    "SupNormResult",
    "admissible",
    "bh_exponents",
    "bh_upper_bound",
    "bilinear_cotype_certificate",
    "certify",
    "cotype_bounds",
    "cotype_ratio",
    "equivalence_demo",
    "equivalence_gap",
    "evaluate",
    "extremal_instance",
    "form_from_dict",
    "form_to_dict",
    "growth_witness",
    "instance_from_dict",
    "interpolate",
    "khinchin_A",
    "lift",
    "littlewood2",
    "load_form",
    "load_instance",
    "make_instance",
    "minkowski_compare",
    "mixed_norm",
    "optimize_ratio",
    "permute_slots",
    "rademacher_average",
    "random_sign_form",
    "save_form",
    "solve_p0",
    "sqrt2_baseline",
    "sup_norm",
    "triple221",
]
