"""Exact commuting-graph spectra of finite groups.

Build a finite group from a Cayley table or a named family, form the
commuting graph on its non-central elements, compute the adjacency
spectrum in exact integer arithmetic, and verify the closed-form spectrum
predictions for groups whose central quotient is Z_p x Z_p or dihedral.
"""

from .catalog import FamilySpec, build, list_catalog, parse_family
from .errors import (
    AbelianGroupError,
    AxiomViolation,
    BudgetExceeded,
    CommspecError,
    IndexOutOfRange,
    NonzeroDiagonalError,
    NotMonicError,
    NotPrimeError,
    NotSymmetricError,
    ParameterOutOfRange,
    ParseError,
    SpectralCheckError,
    UnsupportedFamilyError,
)
from .graphs import (
    build_commuting_graph,
    connected_components,
    export_dot,
    graph_json,
)
from .groups import (
    FiniteGroup,
    Recognition,
    center,
    centralizer_count,
    from_cayley_table,
    from_cayley_text,
    load_cayley_file,
    max_noncommuting_set,
    quotient_by_center,
    recognize_small,
)
from .predictions import (
    predict_family,
    report_json_dict,
    verify_centralizer_corollaries,
    verify_group,
)
from .spectra import (
    CharPoly,
    char_poly,
    exact_determinant,
    integer_spectrum,
    is_integral,
    spectrum_from_pairs,
)

__version__ = "0.1.0"
