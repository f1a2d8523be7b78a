"""Euclidean and hyperbolic asymmetric topological quantum codes.

Builds torus tessellation codes as CSS stabilizer codes over GF(2),
evaluates closed-form {p,q} parameter formulas, computes exact asymmetric
distances by homological cycle search, and certifies ingested hyperbolic
complexes.
"""
from .binmat import BinaryMatrix, RowBasis
from .catalog import (
    CodeParams,
    FamilyRow,
    TABLE1_FAMILIES,
    TABLE2_PAIRS,
    emit_curves,
    emit_tables,
    family_params,
    fixed_pair_rate,
    toric_family_params,
)
from .complexes import SurfaceComplex, dual_complex, load_complex, save_complex
from .distance import (
    DistanceResult,
    certified_distances,
    code_distances,
    oracle_distances,
    shortest_nontrivial_cycle,
)
from .errors import AtqcError, ComplexError, DiscrepancyError, InputError, IntegrityError
from .geometry import (
    SchlafliPair,
    TessellationCensus,
    census,
    classify,
    distance_bounds,
    edge_length,
    fundamental_diameter,
)
from .homology import (
    betti1,
    boundary_matrices,
    cocycle_basis,
    edges_to_mask,
    homology_signature,
    mask_to_edges,
)
from .stabilizer import CssCode, build_css, export_checks, verify_stabilizers
from .torus import (
    HexTorusSpec,
    SquareTorusSpec,
    build_hex_torus,
    build_square_torus,
)

__version__ = "0.1.0"
