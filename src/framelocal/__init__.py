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
    ConfigurationError,
    SpectralData,
    Topology,
    analyze,
    build_laplacian,
    has_spanning_tree,
    is_connected_undirected,
)
from .se3 import (
    AuxMatrix,
    DegenerateInputError,
    Pose,
    Rotation,
    Twist,
    exp_se3,
    gsop,
    gsop_two_column,
    hat3,
    inverse,
    relative_transform,
)
from .simulation import (
    LyapunovCheck,
    OracleReport,
    Scenario,
    Trace,
    closed_form_aligned,
    error_metrics,
    lyapunov_chain_check,
    oracle_report,
    run,
    settling_time,
)

__version__ = "0.1.0"
