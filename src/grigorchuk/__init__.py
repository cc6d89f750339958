"""Grigorchuk groups over ultimately periodic parameter sequences, their
orbit Schreier graphs, the associated minimal subshift, and the embedding of
the group into the topological full group of that subshift."""

from .omega import EventuallyConstantOmegaError, OmegaParseError, OmegaSequence, parse_omega
from .group import (
    apply_generator,
    apply_word,
    ball_sizes,
    element_order,
    is_trivial,
    normalize_word,
)
from .schreier import (
    LabeledGraph,
    build_gamma_orbit,
    build_gamma_recursive,
    export_dot,
    gray_rank,
    ray_at,
    ruler_a,
)
from .subshift import (
    complexity,
    double_language,
    extensions,
    is_admissible,
    render_word,
    uniform_recurrence_radius,
)
from .fullgroup import (
    FullGroupElement,
    Window,
    commutator_identity_check,
    compose,
    double_element,
    dump_element,
    element_order_fg,
    elements_equal,
    embed_word,
    find_disjoint_cylinder,
    first_return_element,
    identity_element,
    injectivity_witness,
    inverse,
    is_identity,
    schreier_consistency,
    schreier_window,
    shift_power,
    swap_involution,
    tau,
    witness_window,
)

__version__ = "0.1.0"
