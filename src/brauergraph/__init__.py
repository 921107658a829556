"""Exact combinatorics of Brauer graph algebras.

The package computes, without any floating point:

* the quiver and relations of the algebra attached to a Brauer graph,
  with minimal generating sets and homogeneity profiles;
* string-module syzygies, Brauer walks, and periods of simple modules;
* minimal projective resolutions of simple modules with explicit
  path-matrix differentials, the generator degrees of the length-graded
  ones, canonical cohomology bases and their degree-one/two
  factorizations;
* Koszul, d-Koszul, degree-0/1/2 generation, and 2-d-Koszul verdicts;
* a brute-force oracle that rebuilds everything by exact linear algebra
  and diffs it against the combinatorial predictions.
"""

from .graph import (
    BrauerGraph,
    BrauerGraphError,
    BrauerWalk,
    HalfEdge,
    HypothesisError,
    ValidationReport,
    cycle_graph,
    from_dict,
    is_length_graded,
    is_reduced,
    load_file,
    loop_graph,
    path_graph,
    star_centers,
    star_graph,
    to_dict,
    triangle_graph,
    validate,
)
from .presentation import (
    Arrow,
    Homogeneity,
    Path,
    Presentation,
    Quiver,
    Relation,
    build_quiver,
    homogeneity,
    minimal_relations,
    present,
    relations_all,
)
from .strings import (
    StringDescriptor,
    SyzygyTrace,
    dimension,
    iterate_syzygy,
    period,
    syzygy,
    syzygy_of_simple,
    validate_acceptable,
)
from .resolution import (
    CanonicalExtElement,
    GenerationCertificate,
    ResolutionStep,
    delta,
    ext_dim,
    generation_certificate,
    generation_degrees,
    obstruction_element,
    resolve_simple,
    resolve_simple_2d,
)
from .classify import (
    KoszulReport,
    d_homog_star_check,
    koszul_report,
    quadratic_family_check,
    two_d_conditions,
)

__all__ = [name for name in dir() if not name.startswith("_")]
