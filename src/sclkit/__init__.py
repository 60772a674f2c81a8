"""Shape documents as constraint logic: validation under the four recursive
semantics, translation to and from the logic, filter axiomatisation,
decidability classification, and desk-scale decision procedures."""

from .rdf import Blank, Graph, Iri, Literal, Triple, nodes_of, parse_turtle, serialize_turtle
from .shacl import (
    Document,
    DocumentError,
    Shape,
    document_from_graph,
    document_to_graph,
    eliminate_xone,
    is_recursive,
    referenced_shapes_closure,
    strip_targets,
)
from .scl import FeatureSet, SclSentence, features_of, normalize, pretty, well_formed
from .translate import TranslationError, tau, tau_inverse
from .semantics import (
    Assignment,
    SemanticsMode,
    eval_path,
    eval_psi,
    gamma_assignment,
    gamma_transform,
    is_faithful,
    sentence_holds,
    stratified_assignment,
    validate,
)
from .filters import (
    CardinalityBound,
    FilterCombination,
    Finite,
    Huge,
    Infinite,
    bounded_axiomatisation,
    combo_cardinality,
    eval_filter,
    naive_axiomatisation,
    truncate_combination,
)
from .decide import (
    SatResult,
    SearchBudget,
    Verdict,
    bounded_sat,
    check_containment,
    classify,
    constraint_satisfiability,
    containment_sentence,
    emit,
    emit_smtlib,
    emit_tptp,
    scl_bounded_sat,
    shape_containment,
    template_sat,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
