"""Conditional simple temporal networks with uncertainty.

Build networks mixing hard temporal constraints, conditional branches
observed at run time, and task durations chosen by the environment;
validate them, project them onto scenarios and situations, propagate
labeled constraints, and check dynamic controllability.
"""

__version__ = "0.1.0"

from .labels import (EMPTY, INCONSISTENT, Label, con, conjoin,
                     enumerate_universe, evaluate, parse_label, sub)
from .model import (DEFAULT_EPSILON, Constraint, ContingentLink, LabeledConstraint,
                    Network, Report, Stn, TimePoint, Violation, embed_stn,
                    strip_labels, to_stn, validate, validate_cstn, validate_cstnu,
                    validate_stnu)
from .projection import (Drama, Scenario, enumerate_scenarios, project,
                         relevant_timepoints, sample_situations)
from .propagation import PropagationResult, propagate_to_fixpoint
from .search import DcResult, candidate_time_grid, check_dc
from .semantics import (DynamicityResult, Strategy, ViabilityResult, dr_hst,
                        history_label, is_dynamic_star, is_viable, sc_hst,
                        sc_hst_star, sit_hst)
from .stn import DistanceMatrix, check_solution, earliest_solution, solve
from .workflow import (CompilationMap, WorkflowError, WorkflowSpec,
                       compile_workflow, parse_workflow)
