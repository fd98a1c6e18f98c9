"""Finite-topology laboratory: semi-open set operators, generalized
set classes, low separation axioms, and an exhaustive claim-checking
harness over small spaces."""

from .axioms import (AxiomProfile, axiom_profile, is_r0, is_semi_r0,
                     is_semi_t1, is_semi_t_half, is_t1)
from .catalog import (CatalogEntry, EmptyWindow, UnknownId, Window,
                      catalog_entries, enumerate_topologies, khalimsky_window,
                      named_space)
from .fileformat import (ParseError, load_topology, parse_topology,
                         serialize_topology)
from .generalized import (GeneralizedFamilies, derived_set,
                          g_v_s_singletons, generalized_families,
                          is_g_lambda_s, is_g_v_s, is_sg_closed)
from .laws import (Law, LawReport, LawScopeError, Witness, check_law,
                   register_laws, registry, run_suite)
from .semi import (OpennessGrades, SemiAnalysis, SetClass, openness_grades,
                   semi_open_family, set_class)
from .spaces import (MAX_POINTS, DuplicateLabel, EmptyCarrier, FiniteSpace,
                     MissingEmptyOrUniverse, NotAPreorder,
                     NotClosedUnderIntersection, NotClosedUnderUnion, SetFamily,
                     SpaceError, TooManyPoints, UnknownLabel, build_space,
                     iter_points, space_from_masks, space_from_table, submasks)

__version__ = "0.1.0"
