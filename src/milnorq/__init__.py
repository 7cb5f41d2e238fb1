"""Exact computations in the mod-p cohomology of elementary abelian groups.

Milnor operations, reduced powers, Dickson/Mui invariant theory, Chern
classes of weight multisets and exact-integer torus Chern series, with a
CLI (``milnorq``) exposing each verification.
"""

from .algebra import (
    Config,
    ExtClass,
    LinearSubst,
    substitute_linear,
)
from .backend import backend_name
from .chern import (
    WeightMultiset,
    divisibility_profile,
    image_generator,
    obstruction_table,
    power_of_regular,
    regular_representation,
    total_chern,
)
from .errors import (
    ConfigMismatchError,
    ConsistencyError,
    ParseError,
    ResourceGuardError,
)
from .exprio import class_from_json, class_to_json, parse_class, render_class
from .invariants import (
    DicksonSet,
    GroupSpec,
    dickson_classes,
    dickson_polynomial,
    group_generators,
    invariant_dimension,
    is_invariant,
    membership_dickson,
    moore_class,
    orbit_size,
    predicted_dimension,
)
from .steenrod import (
    apply_word,
    milnor_q,
    parse_op_word,
    reduced_power,
    total_reduced_power,
)
from .torus import (
    IntSeries,
    LaurentChar,
    chern_series,
    e8_adjoint_check,
    elementary_symmetric_char,
    restrict_to_circle,
    spin_plus_char,
)

__version__ = "0.1.0"

__all__ = [
    "Config",
    "ExtClass",
    "LinearSubst",
    "substitute_linear",
    "parse_class",
    "render_class",
    "class_to_json",
    "class_from_json",
    "milnor_q",
    "reduced_power",
    "total_reduced_power",
    "apply_word",
    "parse_op_word",
    "DicksonSet",
    "GroupSpec",
    "dickson_polynomial",
    "dickson_classes",
    "moore_class",
    "group_generators",
    "is_invariant",
    "membership_dickson",
    "orbit_size",
    "invariant_dimension",
    "predicted_dimension",
    "WeightMultiset",
    "total_chern",
    "regular_representation",
    "divisibility_profile",
    "power_of_regular",
    "image_generator",
    "obstruction_table",
    "LaurentChar",
    "IntSeries",
    "elementary_symmetric_char",
    "spin_plus_char",
    "restrict_to_circle",
    "chern_series",
    "e8_adjoint_check",
    "backend_name",
    "ConfigMismatchError",
    "ConsistencyError",
    "ParseError",
    "ResourceGuardError",
]
