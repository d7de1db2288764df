"""Strata and fibers of the persistence map on a fixed simplicial complex."""
from __future__ import annotations

from .barcodes import (
    ZERO,
    CombinatorialBarcode,
    EndpointMap,
    all_endpoint_maps,
    apply_endpoint_map_to_type,
    canonicalize_barcode,
    compose_endpoint_maps,
    format_barcode_type,
    identity_endpoint_map,
    parse_barcode_type,
    realize_type,
)
from .category import (
    MorphismClass,
    decompose_codim1,
    enumerate_morphism_classes,
    identity_class,
    morphism_class_between,
)
from .errors import DomainError, InvariantError, ParseError
from .fiber import (
    FiberCell,
    FiberComplex,
    boundary_circuits,
    fiber_complex,
    fiber_dimension,
    fiber_homology,
    fiber_vertices,
    triangulate_fiber,
)
from .io import complex_doc, complex_from_doc, emit_dot, load_complex
from .monodromy import MonodromyMap, compose_monodromies, monodromy_map
from .persistence import (
    INF,
    Filter,
    TotalBarcode,
    barcode_of_filter,
    betti_numbers,
    constant_filter,
    filter_from_values,
    infinite_bar_counts,
    make_filter,
)
from .simplicial import (
    F2,
    FieldSpec,
    Simplex,
    SimplicialComplex,
    apply_permutation,
    automorphisms,
    build_complex,
    is_automorphism,
    simplex,
)
from .strata import (
    BarcodeStratumRecord,
    DimensionBoundRow,
    FilterStratum,
    barcode_of_stratum,
    check_dimension_bound,
    enumerate_filter_strata,
    group_strata_by_barcode,
    image_records,
    is_lower_star_stratum,
    representative_filter,
    serialize_stratum,
)
from .structure import (
    RemovabilityReport,
    fiber_symmetry_orbits,
    find_removable_subset,
    is_essential,
    is_removable,
    lower_star_extension,
    symmetry_action_on_fiber,
)

__version__ = "0.1.0"
