"""Exact skew Schur function identities via the shape Hopf algebra."""

from .shapes import (
    Cell,
    Composition,
    Partition,
    SkewShape,
    connected_components,
    format_shape,
    is_ribbon,
    parse_shape,
    ribbon_composition_of,
    ribbon_shape,
    rim_ribbon,
    rotate180,
    skew_from_cells,
)
from .schur import (
    MonomialPoly,
    SymFunc,
    connected_ribbons_of_size,
    monomial_expansion,
    multiply,
    ribbon_product,
    schur_equal,
    schur_expand,
)
from .hopf import (
    check_coassociativity,
    coproduct,
    counit,
    image_cocommutativity,
    removable_ribbons,
    shape_class,
    take_out_left,
    take_out_right,
)
from .wow import (
    KeyRibbons,
    WowStructure,
    amalgamate,
    compose,
    detect_wow,
    dot_w,
    find_structure,
    has_loose_end_ribbons,
    key_ribbons,
    rotate_structure,
)
from .verifier import (
    RibbonBasis,
    check_scalar_multiple_lemma,
    check_signed_sum,
    coefficient_vector,
    proof_trace,
    ribbon_basis,
    verify_corollary,
    verify_main_theorem,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
