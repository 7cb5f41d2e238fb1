"""Exact computations in the mod-p cohomology of elementary abelian groups.

Milnor operations, reduced powers, Dickson/Mui invariant theory, Chern
classes of weight multisets and exact-integer torus Chern series, with a
CLI (``milnorq``) exposing each verification.

Importing the package runs none of its modules.  Each CLI call is a short
process of its own, and compiling and running modules it never uses was
most of its start-up.  So every submodule is registered in ``sys.modules``
through ``importlib.util.LazyLoader`` and runs on its first attribute
access, and the names of ``__all__`` are served by a module
``__getattr__`` (PEP 562).  The modules are registered up front rather
than imported inside the functions that use them, so code that walks
``sys.modules`` right after ``import milnorq.cli``, as
``perfbench/tracer.py`` does to wrap the public functions, still finds
every module; its own ``getattr`` then runs the module it asks about.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# module -> the public names it defines, in the order of __all__
_EXPORTS = {
    "algebra": ["Config", "ExtClass", "LinearSubst", "substitute_linear"],
    "exprio": ["parse_class", "render_class", "class_to_json"],
    "steenrod": ["milnor_q", "reduced_power", "apply_word", "parse_op_word"],
    "invariants": [
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
    ],
    "chern": [
        "WeightMultiset",
        "total_chern",
        "regular_representation",
        "divisibility_profile",
        "power_of_regular",
        "image_generator",
        "obstruction_table",
    ],
    "torus": ["restrict_to_circle", "chern_series", "e8_adjoint_check"],
    "backend": ["backend_name"],
    "errors": [
        "ConfigMismatchError",
        "ConsistencyError",
        "ParseError",
        "ResourceGuardError",
    ],
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def _register(module):
    """Put the unexecuted submodule into sys.modules and the package."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    globals()[module] = lazy


for _module in (*_EXPORTS, "linalg"):
    _register(_module)
del _module


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[module], name)
    globals()[name] = value  # bound from now on, as by an eager import
    return value


def __dir__():
    return sorted({*globals(), *__all__})
