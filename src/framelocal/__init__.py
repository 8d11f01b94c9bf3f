"""Distributed localization of a common reference frame on SE(3).

Library and CLI for two cooperative frame-localization laws over a team of
rigid bodies: an exponentially convergent law for directed interaction
graphs with a spanning tree, and a finite-time law for connected undirected
graphs, together with the simulation, reconstruction, and oracle machinery
needed to verify their convergence properties at desk scale.
"""

from .estimators import (
    Asymptotic,
    EstimatorState,
    FiniteTime,
    ReconstructionMode,
    init_aux,
    reconstruct,
)
from .graphs import (
    ConnectivityError,
    MultiplicityError,
    SpectralData,
    Topology,
    analyze,
    build_laplacian,
    fiedler_value,
    has_spanning_tree,
    is_connected_undirected,
    left_null_eigenvector,
    root_agents,
)
from .se3 import (
    AuxMatrix,
    DegenerateInputError,
    Pose,
    Rotation,
    Twist,
    compose,
    exp_se3,
    frobenius_distance,
    gsop,
    gsop_two_column,
    hat3,
    hat6,
    inverse,
    relative_transform,
    vee3,
    vee6,
)
from .simulation import (
    ConfigurationError,
    LyapunovCheck,
    OracleReport,
    Scenario,
    Trace,
    closed_form_aligned,
    error_metrics,
    lyapunov_chain_check,
    oracle_report,
    propagate_truth,
    run,
    settling_time,
)

__version__ = "0.1.0"
