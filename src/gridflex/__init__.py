"""Operational-flexibility polytopes for two-area DC power systems.

The package computes, projects, and analyzes the sets of feasible
deviations around a scheduled operating point: which combinations of
tie-line flow changes a control area can absorb, with or without
redispatching its own units, with or without single-outage security
margins, and how that compares to a plain transfer-capacity limit.
"""

from .analysis import (ExportedFlexibilityReport, ExternalPolytope,
                       FlexibilitySpec, NodalDeviationReport,
                       UtilizationComparison, assemble_constraints,
                       build_atc_polytope, compare_utilization,
                       exported_flexibility, external_polytope,
                       nodal_deviation_report, prepare)
from .constraints import (ConstraintBlock, DeltaLimits, assemble_generator_outages,
                          assemble_line_outages, assemble_nominal,
                          compute_delta_limits, stack_n1)
from .errors import (CaseError, GridflexError, InfeasibleSetError, LPSolverError,
                     ProjectionSizeError, SingularNetworkError, UnboundedSetError)
from .network import (AreaView, Bus, Generator, NetworkCase, ReserveConfig,
                      TransmissionLine, case_from_dict, configure_reserves,
                      load_case, partition, scale_load, validate_case)
from .polytope import (HPolytope, area_2d, contains, is_feasible, project,
                       vertices_2d, write_vertices_csv)
from .sensitivity import (GgdfMatrix, LodfMatrix, PtdfMatrix, ScheduledFlows,
                          compute_dc_flows, compute_ggdf, compute_lodf,
                          compute_ptdf)

__version__ = "0.1.0"

__all__ = [
    "AreaView", "Bus", "CaseError", "ConstraintBlock", "DeltaLimits",
    "ExportedFlexibilityReport", "ExternalPolytope", "FlexibilitySpec",
    "Generator", "GgdfMatrix", "GridflexError", "HPolytope",
    "InfeasibleSetError", "LPSolverError", "LodfMatrix", "NetworkCase",
    "NodalDeviationReport", "ProjectionSizeError", "PtdfMatrix",
    "ReserveConfig", "ScheduledFlows", "SingularNetworkError",
    "TransmissionLine", "UnboundedSetError", "UtilizationComparison",
    "area_2d", "assemble_constraints", "assemble_generator_outages",
    "assemble_line_outages", "assemble_nominal", "build_atc_polytope",
    "case_from_dict", "compare_utilization", "compute_dc_flows",
    "compute_delta_limits", "compute_ggdf", "compute_lodf", "compute_ptdf",
    "configure_reserves", "contains", "exported_flexibility",
    "external_polytope", "is_feasible", "load_case",
    "nodal_deviation_report", "partition", "prepare", "project",
    "scale_load", "stack_n1", "validate_case", "vertices_2d",
    "write_vertices_csv",
]
