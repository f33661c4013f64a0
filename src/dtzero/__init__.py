"""Exact-arithmetic engine for dimension-zero Donaldson-Thomas series.

Couples a truncated power-series ring over exact rationals with the
MacMahon plane-partition function, Chern-number calculus for threefolds,
the rank-three cobordism decomposition, and the set-partition lattice
machinery (multiplicities, diagonal neighborhoods, discrepancy
recursion) that organizes the series coefficients.

_SUBMODULE_EXPORTS is the one list of public names: the submodules define
no `__all__` of their own.  Each name loads its submodule on first access
(PEP 562), so a process that only needs the series never imports the lattice.
Each access reads the submodule's current attribute and nothing is
cached here, so a name patched in its submodule (by a test or a tracer)
reads the same through the package, and reads the original once restored.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_EXPORTS = {
    "series": ("OrderMismatchError", "TruncatedSeries"),
    "macmahon": ("macmahon_neg", "macmahon_series", "sigma2"),
    "plane_partitions": (
        "ORACLE_BOUND",
        "PlanePartition",
        "count_plane_partitions",
        "iter_plane_partitions",
    ),
    "chern": (
        "BUILTIN_THREEFOLDS",
        "ChernNumbers",
        "SpecDocumentError",
        "ThreefoldSpec",
        "catalog",
        "chern_of_hypersurface",
        "chern_of_projective_space_product",
        "chern_scale",
        "parse_spec_document",
        "twist_class_monomials",
        "twist_exponent",
    ),
    "cobordism": (
        "CobordismDecomposition",
        "ExponentIdentityReport",
        "GENERATOR_DIMS",
        "decompose",
        "generator_chern_numbers",
        "generator_determinant",
        "generator_matrix",
        "verify_exponent_identity",
    ),
    "lattice": (
        "EpsilonSchedule",
        "InadmissibleScheduleError",
        "PointConfig",
        "SetPartition",
        "alpha_factorial",
        "classify_q_set",
        "delta_transform",
        "fiber_multiplicity_sum",
        "in_discrepancy_set",
        "multiplicative_delta_property",
        "multiplicity",
        "partitions",
        "strict_diagonal_distance_sq",
    ),
    "dt": ("DEFAULT_ORDER", "DTSeries", "NonIntegralSpecError", "dt_series"),
    "degrees": (
        "discrepancy_degrees",
        "dt_rational_power",
        "log_macmahon_neg_coeffs",
        "multiplicativity_failures",
        "partition_product_sum",
        "reconstructed_coefficient",
        "root_argument_failures",
        "universality_failures",
    ),
}

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
