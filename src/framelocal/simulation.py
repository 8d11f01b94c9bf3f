"""Ground-truth propagation, fixed-step integration, and oracle checks.

A run advances the true poses by the exact exponential of their constant
body twists (so truth never leaves SE(3)) and integrates the estimator
matrices with classical RK4 on the raw 4x4 ODE, evaluating the relative
transforms at the exact stage times. The exponentials over a half and a
full step come as one (2, n) pair from one ``exp_twists`` call, made once
the start has passed the magnitude bound (MAX_MAGNITUDE). Two products
with it write both stage truths of a step in place.
Alongside the trace, a run computes an oracle report from the initial data
alone: the consensus weights, the predicted consensus state and transform
bias, and (for the finite-time law) the Lyapunov-based settling bound.
All of this reads a scenario's read-only arrays: the stacks its agents are
stored as, and ``_p0`` (the seeded estimator draw, made only if used).

Both laws are evaluated by one stacked kernel in aligned coordinates. The
neighbor term T_ij P_j - P_i equals T_i^-1 (S_j - S_i) with S_i = T_i P_i;
the difference has a zero bottom row, so T_i^-1 acts on it as R_i^T and
its Frobenius norm is ||S_j - S_i||_F. Per call the kernel forms the top
three rows of every S_i, takes one 12-column difference per link, weights
it (finite-time law only), sums it per receiving agent, and rotates the sum
back by R_i^T. The bottom row of the derivative only ever has -0.0 added
to it, which changes no value, so it stays exactly zero.

On an undirected graph the term of edge (j, i) is the exact negation of
that of (i, j): a - b = -(b - a) and w (-d) = -(w d) in IEEE arithmetic, and
the norm of -d is that of d. So the kernel gathers, weights and allocates
each link once, as (lo, hi) with lo < hi, and writes the mirror with one
negation; a digraph keeps every edge and a mirror of length 0. The rows are
laid out so that each agent sums its senders below it and then above it,
each ascending: the order of the sorted edges, so every sum adds the same
values in the same order as a pass over all edges, and the derivative is
the same bit for bit. The test suite pins the kernel to that full-edge pass
(bit for bit) and to a per-agent oracle that applies the measured relative
transforms literally.

A step makes as few, and as cheap, numpy calls as the arithmetic allows,
all in the arithmetic's original order. A truth lives in one of three
truth slots, (n, 8, 4) stacks [T; -hat(twist)] that hold the truth now, at
the half step and at the full step; they rotate from step to step, and the
truth products write T into them in place. One product of a slot with the
estimator stack gives both the aligned rows T P and the generator term
-hat(twist) P, with the values of the two separate products: the BLAS
gives each output row the same bits whatever the row count of its stack,
which a test checks. Each slot's R^T view is taken once. One clipped
``take`` per stage gathers both ends of every link into a reused buffer,
and one subtraction of its halves fills the forward rows. The mirror
negation is skipped where there are no mirror rows (every digraph).
Products land in reused buffers, and the rotated sums reach the
derivative by one contiguous add of a whole (n, 4, 4) stack whose bottom
row is -0.0. Ufunc outputs are passed positionally, and the ufuncs are
bound locally. The step loop does its RK4 stage and update arithmetic in
place, writes the four stage derivatives into reused buffers, and records
each sample by copying the stacks and computing V; a non-finite V stops
the run. Under the asymptotic law on a digraph a step makes 43 numpy calls
and views; an undirected graph adds 4 (the mirror negations) and the
finite-time law 28 (the weights).

All else a trace reports is derived when read, in one walk over blocks of
at most BLOCK_MATRICES agent matrices (``Trace.blocks``, the one place a
trace is reconstructed), each value equal to its sample's alone bit for
bit. A run whose trace would exceed MAX_TRACE_BYTES, or whose step work
steps x (n + E + 150) would exceed MAX_STEP_WORK, is rejected before
anything is allocated; the steps are those up to the last sample, the last
multiple of the stride.

The module needs only numpy, the closed-form oracle included. Its flow
expm(-L t) is a stochastic matrix, and ``closed_form_aligned`` computes it by
uniformization: a series of nonnegative terms, then repeated squaring, with
no cancellation anywhere (see ``_consensus_flow``).
"""

from __future__ import annotations

import collections
import functools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .estimators import (
    Asymptotic,
    FiniteTime,
    Law,
    ReconstructionMode,
    init_aux_stack,
    reconstruct,
)
from .graphs import (
    ConfigurationError,
    Topology,
    analyze,
    as_int,
    build_laplacian,
    has_spanning_tree,
    is_connected_undirected,
)
from .se3 import Pose, Rotation, Twist, _freeze, exp_twists, gram_schmidt, hat3

WELL_POSED_DET = 1e-9      # |det Q_c| above this, with independent columns => bias well posed
SETTLED_V = 1e-10          # a sample counts as settled when V drops below this
LYAP_FLOOR = 1e-12         # samples with V below this are excluded from the chain check
BLOCK_MATRICES = 128       # agent matrices per batched pass over a trace (errors, state.csv)
MAX_TRACE_BYTES = 1 << 30  # largest trace a run may allocate
# largest step work a run may start. On an idle 2-core Xeon a step cost
# about 0.28 us per unit of n + E with a per-step overhead of about 150
# units, so this is at most about 47 minutes. The kernel's step costs less
# than that calibration, so the bound errs on the safe side
MAX_STEP_WORK = 1e10
# largest magnitude M of a start: per agent, ||p(0)|| + ||v|| t_end (which
# bounds ||p(t)||), each entry of S(0) = T P(0) (S(t) keeps their range under
# both laws) and a step's angle ||w|| dt. A run forms sums of products of at
# most three of these: det Q_c <= (sqrt(3) M)^3 ~ 5e300, 2 V <= 48 n M^2 and
# Rodrigues' theta^3 stay far below the largest float, 1.8e308, at any n
MAX_MAGNITUDE = 1e100
# most squarings the closed-form flow may take. Each squaring about doubles
# the rounding in the flow's row sums, so after s of them they are off by
# about 2^s u (u = 2^-53; measured up to 8 * 2^s u over random Laplacians of
# up to 8 agents). The closed-form checks allow 1e-6 on aligned states whose
# entries reach about 10, a relative 1e-7: at 26 squarings the rounding stays
# under it (8 * 2^-27 = 6e-8), at 27 it would not. Past the bound the error
# keeps doubling until the flow is wrong outright (at t = 2^58 a directed
# 4-ring's entries were off by 1e6)
MAX_FLOW_SQUARINGS = 26

# estimator start: the seeded draw (None) or an (n, 4, 4) stack
InitialState = np.ndarray | None


# Trace.blocks(): a slice of samples, their estimates, validity mask and errors
TraceBlock = collections.namedtuple("TraceBlock", "samples estimates valid orient pos")


class _Stack(Sequence):
    """Read-only (n, ...) arrays read as n objects, each built by ``item`` when read."""

    def __init__(self, *arrays):
        self.arrays = tuple(map(_freeze, arrays))

    def __len__(self):
        return len(self.arrays[0])

    def __getitem__(self, k):
        rows = range(len(self))[k]
        if isinstance(rows, range):
            return tuple(map(self.__getitem__, rows))
        return self.item(*(a[rows] for a in self.arrays))

    def __repr__(self):
        # every digit and every entry, so eval of the repr gives the stack back
        with np.printoptions(floatmode="unique", threshold=sys.maxsize):
            return f"{type(self).__name__}({', '.join(map(repr, self.arrays))})"


class _PoseStack(_Stack):
    kind, item, parts = Pose, Pose.from_matrix, ("matrix",)   # t0, (n, 4, 4)


class _TwistStack(_Stack):
    kind, item, parts = Twist, Twist, ("linear", "angular")   # (n, 3) each


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything needed to reproduce one run. Its agents, given as Pose and
    Twist objects, are stored as read-only stacks that ``dataclasses.replace``
    hands on; reading ``initial_poses`` or ``twists`` builds and validates one
    object per item read."""

    topo: Topology
    initial_poses: Sequence
    twists: Sequence
    law: Law
    dt: float
    t_end: float
    seed: int
    stride: int = 10
    reconstruction: ReconstructionMode = ReconstructionMode.TWO_COLUMN_CROSS

    def __post_init__(self):
        if not isinstance(self.law, Law):
            raise ValueError(f"law: expected Asymptotic or FiniteTime, got {type(self.law).__name__}")
        for name, stack in (("initial_poses", _PoseStack), ("twists", _TwistStack)):
            items = getattr(self, name)
            if not isinstance(items, stack):
                items = list(items)
                for k, item in enumerate(items, 1):
                    if not isinstance(item, stack.kind):
                        got = type(item).__name__
                        raise ValueError(f"{name}[{k}]: expected a {stack.kind.__name__}, got {got}")
                items = stack(*([getattr(item, part) for item in items] for part in stack.parts))
            if len(items) != self.topo.n:
                raise ValueError(f"{name}: need {self.topo.n} agents, got {len(items)}")
            object.__setattr__(self, name, items)
        object.__setattr__(self, "reconstruction", ReconstructionMode(self.reconstruction))
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not self.dt <= self.t_end < math.inf:
            raise ValueError(f"t_end must be finite and at least dt, got {self.t_end}")
        if math.isinf(self.t_end / self.dt):
            raise ValueError(f"t_end / dt overflows, got {self.t_end} / {self.dt}")
        object.__setattr__(self, "stride", as_int(self.stride, "stride"))
        if self.stride < 1:
            raise ValueError(f"stride must be a positive integer, got {self.stride}")
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")

    @property
    def n_steps(self) -> int:
        # the small slack keeps 10 / 1e-3 from rounding down to 9999
        return int(math.floor(self.t_end / self.dt + 1e-9))

    @functools.cached_property
    def _p0(self) -> np.ndarray:
        """The seeded (n, 4, 4) estimator draw, read-only; drawn only when read."""
        p0 = init_aux_stack(self.topo.n, self.seed)
        p0.setflags(write=False)
        return p0


@dataclass(frozen=True, eq=False)
class Trace:
    """A run's scenario and oracle report plus what integration produced.

    Stored per sample: the true poses T_i, the estimator matrices P_i and V.
    Derived on each access: ``times`` and ``aligned`` = T_i P_i, whose
    consensus the laws drive. Derived in ``blocks()`` and joined once, on
    first access: ``estimates`` / ``estimate_valid`` (every P_i reconstructed
    in the scenario's mode) and the per-agent / per-link deviations from the
    bias (NaN where reconstruction was invalid or the bias is undefined).
    """

    scenario: Scenario
    report: OracleReport
    truth: np.ndarray            # (k, n, 4, 4)
    aux: np.ndarray              # (k, n, 4, 4)
    lyapunov: np.ndarray         # (k,)

    @property
    def times(self) -> np.ndarray:
        """(k,) sample times, step * dt (left to right, so bit-equal to it)."""
        k = len(self.lyapunov)
        # a lone sample is step 0 whatever the stride, which may not fit int64
        return np.arange(k) * (self.scenario.stride if k > 1 else 0) * self.scenario.dt

    @property
    def aligned(self) -> np.ndarray:
        """(k, n, 4, 4) aligned states T_i P_i."""
        return self.truth @ self.aux

    def blocks(self):
        """A TraceBlock per block of consecutive samples, each at most BLOCK_MATRICES
        agent matrices (but at least one sample): the one place a trace is
        reconstructed. An undefined bias is a NaN R_c, which makes every error NaN."""
        k, n = self.aux.shape[:2]
        links = self.scenario.topo.links
        bias = self.report.transform_bias
        r_c = np.full((3, 3), np.nan) if bias is None else bias.rotation.r
        step = max(1, BLOCK_MATRICES // n)
        for lo in range(0, k, step):
            b = slice(lo, min(lo + step, k))
            estimates, valid = reconstruct(self.aux[b], self.scenario.reconstruction)
            orient, pos = error_metrics(self.truth[b], estimates, valid, r_c, links)
            yield TraceBlock(b, estimates, valid, orient, pos)

    @functools.cached_property
    def _reconstructed(self) -> tuple:
        estimates = np.empty(self.aux.shape)
        valid = np.empty(self.aux.shape[:2], dtype=bool)
        for block in self.blocks():
            estimates[block.samples], valid[block.samples] = block.estimates, block.valid
        return estimates, valid

    @property
    def estimates(self) -> np.ndarray:
        """(k, n, 4, 4) reconstructed pose matrices (identity where invalid)."""
        return self._reconstructed[0]

    @property
    def estimate_valid(self) -> np.ndarray:
        """(k, n) mask of valid reconstructions."""
        return self._reconstructed[1]

    @functools.cached_property
    def _errors(self) -> tuple:
        orient = np.empty(self.aux.shape[:2])
        pos = np.empty((len(self.aux), len(self.scenario.topo.links)))
        for block in self.blocks():
            orient[block.samples], pos[block.samples] = block.orient, block.pos
        return orient, pos

    @property
    def orientation_errors(self) -> np.ndarray:
        """(k, n) per-agent orientation errors, in blocks on first access."""
        return self._errors[0]

    @property
    def position_errors(self) -> np.ndarray:
        """(k, e) errors over the topology's ``links``, in blocks on first access."""
        return self._errors[1]


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Predictions computable from the initial data alone."""

    w1: np.ndarray                    # consensus weights, sum 1
    consensus_state: np.ndarray       # (4, 4) weighted mix of initial aligned states
    transform_bias: Pose | None       # common bias the estimates converge to (None if ill-posed)
    det_qc: float                     # |det Q_c|, Q_c the rotation block of the consensus state
    lambda2: float | None             # spectral gap, undirected runs only
    settling_bound: float | None      # finite-time bound 2 V0^(a/2) / (kappa a), if finite
    settling_bound_optimistic: float | None   # half of the above
    v0: float


@dataclass(frozen=True, eq=False)
class LyapunovCheck:
    """Sample-wise verdicts for the decay inequality dV/dt <= -kappa V^((2-a)/2)."""

    times: np.ndarray
    checked: np.ndarray
    passed: np.ndarray
    fraction_passed: float
    kappa: float


def error_metrics(truth, estimates, valid, r_c, links) -> tuple:
    """Deviation of the estimates from truth up to the common bias R_c.

    Over (..., n, 4, 4) pose stacks, the (..., n) validity mask and e links
    (i, j), 1-based: returns ``(orientation (..., n), position (..., e))``,
    ||R_i Rhat_i^T - R_c||_F per agent and, per link, the norm of the true
    displacement minus the R_c-rotated estimated one. NaN wherever an
    invalid estimate is involved, never 0.
    """
    truth = np.asarray(truth, dtype=np.float64)
    estimates = np.asarray(estimates, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if truth.shape != estimates.shape or truth.shape[:-2] != valid.shape:
        raise ValueError("shape mismatch between truth, estimates, and validity")
    i, j = (np.asarray(links, dtype=np.intp).reshape(-1, 2) - 1).T
    # norms as stacked row-times-column matmuls: the dot kernel of
    # np.linalg.norm, so each value is that of its agent or link alone
    dev = truth[..., :3, :3] @ np.swapaxes(estimates[..., :3, :3], -1, -2) - r_c
    dev = dev.reshape(*dev.shape[:-2], 1, 9)
    orient = np.sqrt(dev @ np.swapaxes(dev, -1, -2))[..., 0, 0]
    p, p_hat = truth[..., :3, 3:], estimates[..., :3, 3:]
    miss = (p[..., j, :, :] - p[..., i, :, :]) - r_c @ (p_hat[..., j, :, :] - p_hat[..., i, :, :])
    pos = np.sqrt(np.swapaxes(miss, -1, -2) @ miss)[..., 0, 0]
    return (
        np.where(valid, orient, np.nan),
        np.where(valid[..., i] & valid[..., j], pos, np.nan),
    )


def _initial_stacks(s: Scenario, initial_state: InitialState = None) -> tuple:
    """(t0, p0): the scenario's poses, and initial_state or else its seeded draw.

    A given state must be an (n, 4, 4) stack of finite matrices whose bottom
    rows are exactly (0, 0, 0, 1) (-0.0 compares equal); the kernel never
    reads the bottom rows, so a wrong one would pass through a whole run.
    """
    (t0,) = s.initial_poses.arrays
    if initial_state is None:
        return t0, s._p0
    p0 = np.asarray(initial_state, dtype=np.float64)
    if p0.shape != t0.shape:
        raise ValueError(f"initial state has shape {p0.shape}, expected {t0.shape}")
    finite = np.isfinite(p0).all(axis=(1, 2))
    bad = np.flatnonzero(~(finite & (p0[:, 3] == (0.0, 0.0, 0.0, 1.0)).all(axis=1)))
    if len(bad):
        k = bad[0]
        what = f"has bottom row {p0[k, 3].tolist()}" if finite[k] else "is not finite"
        raise ValueError(
            f"initial state: the matrix of agent {k + 1} {what}; "
            "need finite entries and a bottom row of (0, 0, 0, 1)"
        )
    return t0, p0


def _check_preconditions(s: Scenario):
    if isinstance(s.law, Asymptotic):
        if not has_spanning_tree(s.topo):
            raise ConfigurationError(
                "asymptotic law requires an interaction graph with a spanning tree"
            )
    elif not is_connected_undirected(s.topo):
        raise ConfigurationError("finite-time law requires a connected undirected interaction graph")


def oracle_report(s: Scenario, initial_state: InitialState = None) -> OracleReport:
    """Predictions from the initial data: weights, consensus state, bias, bounds.

    A start past MAX_MAGNITUDE raises ConfigurationError naming the agent,
    the quantity and the limit. Under the finite-time law, an unsettled
    start (V0 >= SETTLED_V) whose links all lie closer than epsilon raises
    it too: the guard would zero every weight and the law would never act.
    A settling bound too large for a float is None.
    """
    _check_preconditions(s)
    spectral = analyze(s.topo)
    w1 = spectral.w1
    t0, p0 = _initial_stacks(s, initial_state)
    with np.errstate(over="ignore", invalid="ignore"):   # a value that overflows fails below
        aligned0 = t0 @ p0
        p, v, w = (np.hypot(np.hypot(x[:, 0], x[:, 1]), x[:, 2]) for x in (t0[:, :3, 3], *s.twists.arrays))
        reach, angle = np.maximum(p + v * s.t_end, abs(aligned0).max(axis=(1, 2))), w * s.dt
    for values, text in (
        (reach, "initial state: agent {} is too large: max(||p(0)|| + ||v|| t_end, |T P(0)|) = "
                "{}, over the limit {:g}"),
        (angle, "integration: agent {} turns by ||w|| dt = {} in one step, over the limit {:g}; "
                "use a smaller dt"),
    ):
        if not (values <= MAX_MAGNITUDE).all():   # NaN compares false
            k = np.argmin(values <= MAX_MAGNITUDE)
            raise ConfigurationError(text.format(k + 1, float(values[k]), MAX_MAGNITUDE))
    s_c = np.einsum("n,nij->ij", w1, aligned0)
    v0 = 0.5 * float(np.sum((aligned0 - s_c) ** 2))
    det = abs(float(np.linalg.det(s_c[:3, :3])))
    # a large determinant does not make every column independent: one
    # scaled far below the others fails Gram-Schmidt, and the bias is None
    q, independent, _ = gram_schmidt(s_c[:3, :3])
    bias = Pose(Rotation(q), s_c[:3, 3]) if det > WELL_POSED_DET and independent else None
    if isinstance(s.law, FiniteTime) and s.topo.links and v0 >= SETTLED_V:
        # the kernel weighs an edge only where its aligned difference, over
        # the top three rows, is at least epsilon: if none is, V never moves
        src, dst = s.topo.edge_index
        rows = aligned0[:, :3].reshape(s.topo.n, 12)
        diff = rows[dst] - rows[src]
        norms = np.sqrt(np.einsum("ej,ej->e", diff, diff))
        if not (norms >= s.law.epsilon).any():
            raise ConfigurationError(
                f"finite-time law: epsilon = {s.law.epsilon:g} is above every initial link "
                f"distance ||S_j - S_i||_F (the largest is {norms.max():.4g}), so the guard "
                "would zero every weight and the law would never act; use a smaller epsilon"
            )
    bound = optimistic = None
    if isinstance(s.law, FiniteTime) and spectral.lambda2 is not None:
        kappa = (2.0 * spectral.lambda2) ** ((2.0 - s.law.alpha) / 2.0)
        rate = kappa * s.law.alpha
        bound = 2.0 * v0 ** (s.law.alpha / 2.0) / rate if rate else math.inf
        # near alpha = 0 the bound overflows, or rate rounds to 0: no bound then
        bound, optimistic = (bound, bound / 2.0) if math.isfinite(bound) else (None, None)
    return OracleReport(
        w1=w1,
        consensus_state=s_c,
        transform_bias=bias,
        det_qc=det,
        lambda2=spectral.lambda2,
        settling_bound=bound,
        settling_bound_optimistic=optimistic,
        v0=v0,
    )


def _neg_generators(s: Scenario) -> np.ndarray:
    """(n, 4, 4) -hat(twist_i) = -[hat3(w_i) v_i; 0 0], negated whole: -0.0 bottom rows."""
    linear, angular = s.twists.arrays
    xi = np.zeros((s.topo.n, 4, 4))
    xi[:, :3, :3], xi[:, :3, 3] = hat3(angular), linear
    return -xi


def _make_rhs(s: Scenario) -> tuple:
    """(truths, rhs): three truth slots and the stacked RHS over them, both laws.

    ``truths`` is (3, n, 8, 4): slot k holds a truth stack T in its top four
    rows, which the caller writes, and -hat(twist_i) in its bottom four,
    written here. ``rhs(k, pp, out)`` writes into ``out`` and returns

        dP_i = -hat(twist_i) P_i + R_i^T sum_j w_ij (S_j - S_i),

    summed over the edges (i, j) with S = T P in its top three rows,
    flattened to 12 columns, T the truth in slot k and pp an (n, 4, 4)
    estimator stack. One product of slot k with pp gives both S and
    -hat(twist_i) P_i. Each undirected link is computed once and mirrored by
    negation, in rows that keep the sorted-edge summation order (see the
    module docstring). The kernel writes only ``out`` and its own working
    buffers (the slot product, the link ends, the edge rows and the rotated
    sums); it reads pp and the slots.
    """
    n = s.topo.n
    lo, hi = s.topo.edge_index
    if not s.topo.directed:
        lo, hi = lo[lo < hi], hi[lo < hi]
    f = len(lo)
    m = s.topo.edge_index.shape[1] - f   # mirror rows: every link undirected, none directed
    # rows [mirror terms received at hi..., forward terms received at lo...]:
    # each bin sums its senders below it, then above it, so in sorted-edge order
    bins = (12 * np.concatenate((hi[:m], lo))[:, None] + np.arange(12)).ravel()
    diff = np.empty((m + f, 12))
    weights, mirror, forward = diff.ravel(), diff[:m], diff[m:]
    mirrored = forward[:m]   # the forward rows whose links have a mirror row
    truths = np.empty((3, n, 8, 4))
    truths[:, :, 4:, :] = _neg_generators(s)
    slots = tuple(truths)
    rt = tuple(slot[:, :3, :3].transpose(0, 2, 1) for slot in slots)   # R^T of each slot
    # [T P; -hat(twist) P]: rows 0-2 of each agent's 8 are the top three rows
    # of S_i, read as the first 12 of its 32 entries
    prod = np.empty((n, 8, 4))
    aligned_rows, generated = prod.reshape(n, 32)[:, :12], prod[:, 4:, :]
    # both ends of every link in one gather; the indices are in range by
    # construction, and "clip" lets take write into ends directly (under
    # "raise" it buffers the output)
    ends_index = np.concatenate((hi, lo))
    ends = np.empty((2 * f, 12))
    at_hi, at_lo = ends[:f], ends[f:]
    gather = aligned_rows.take
    n_bins, acc_shape = 12 * n, (n, 3, 4)
    # R_i^T times the summed terms, written into the top rows of a stack whose
    # bottom row is -0.0: x + (-0.0) is x for every x, +0.0 included, so one
    # contiguous add of the whole stack leaves the bottom row as it was
    update = np.full((n, 4, 4), -0.0)
    rotated = update[:, :3, :]
    finite = isinstance(s.law, FiniteTime)
    alpha, eps = (s.law.alpha, s.law.epsilon) if finite else (0.0, 0.0)
    add, matmul, subtract, negative, bincount = np.add, np.matmul, np.subtract, np.negative, np.bincount
    multiply, sqrt, einsum, where, inf = np.multiply, np.sqrt, np.einsum, np.where, np.inf

    def rhs(k, pp, out):
        matmul(slots[k], pp, prod)
        gather(ends_index, 0, ends, "clip")
        subtract(at_hi, at_lo, forward)
        if finite:
            norms = sqrt(einsum("ej,ej->e", forward, forward))
            # inf ** -alpha is 0: an edge inside the guard radius gets no weight
            w = where(norms >= eps, norms, inf) ** -alpha
            multiply(forward, w[:, None], forward)
        if m:
            negative(mirrored, mirror)   # exact: w (-d) = -(w d)
        acc = bincount(bins, weights, minlength=n_bins).reshape(acc_shape)
        matmul(rt[k], acc, rotated)
        return add(generated, update, out)

    return truths, rhs


def _count(k: int) -> str:
    """A step or sample count for an error line: in full up to 16 digits, else to 3."""
    return f"{k}" if k < 10**16 else f"{k:.3g}"


def run(s: Scenario, initial_state: InitialState = None) -> tuple:
    """Integrate truth and estimators together; return (Trace, OracleReport).

    A trace samples every ``stride``-th step and ends at the last multiple
    of ``stride`` at or before ``t_end``; the steps after it would not be
    recorded, so they are not integrated. ``initial_state``, an (n, 4, 4)
    stack of finite matrices with bottom rows (0, 0, 0, 1), replaces the
    seeded estimator initialization (a harness knob; the laws stay local).
    """
    n = s.topo.n
    k_samples = s.n_steps // s.stride + 1
    n_steps = (k_samples - 1) * s.stride
    # times and V, plus per agent truth, aux and an orientation error, plus
    # a position error per link: what the Trace stores and derives once read
    nbytes = 8 * k_samples * (2 + 33 * n + len(s.topo.links))
    if nbytes > MAX_TRACE_BYTES:
        raise ConfigurationError(
            f"integration: the trace of {_count(k_samples)} samples would take "
            f"{nbytes / 2**30:.3g} GiB, over the {MAX_TRACE_BYTES / 2**30:g} GiB limit; "
            "use a larger stride"
        )
    # per RK4 step: work per agent and per edge, plus a per-call overhead
    # that dominates at small n
    n_edges = s.topo.edge_index.shape[1]
    work = n_steps * (n + n_edges + 150)
    if work > MAX_STEP_WORK:
        raise ConfigurationError(
            f"integration: {_count(n_steps)} steps over {n} agents and {n_edges} edges "
            f"predict {work:.3g} units of step work, over the {MAX_STEP_WORK:.3g} limit; "
            "use a larger dt or a smaller t_end"
        )
    report = oracle_report(s, initial_state)
    t0, p_stack = _initial_stacks(s, initial_state)
    # the truth exponentials over a half and a full step, as one (2, n) pair; the
    # bias in oracle_report is the only validated object a run builds
    half = s.dt / 2.0
    e_half, e_full = exp_twists(*s.twists.arrays, np.array([half, s.dt]).reshape(2, 1, 1))
    truths, rhs = _make_rhs(s)
    tops = tuple(slot[:, :4, :] for slot in truths)   # the truth T of each slot
    tops[0][...] = t0

    truth = np.zeros((k_samples, n, 4, 4))
    aux = np.zeros((k_samples, n, 4, 4))
    lyap = np.zeros(k_samples)

    def record(k: int, step: int, tt: np.ndarray, pp: np.ndarray):
        truth[k] = tt
        aux[k] = pp
        v = 0.5 * float(np.sum((tt @ pp - report.consensus_state) ** 2))
        if not math.isfinite(v):
            raise ConfigurationError(
                f"integration: the estimator state is not finite at step {step} "
                f"(t = {step * s.dt:g}); use a smaller dt"
            )
        lyap[k] = v

    dt, sixth, stride = s.dt, s.dt / 6.0, s.stride
    add, multiply, matmul = np.add, np.multiply, np.matmul
    # the stages and the update work in place, with the operations of
    # p + half * k1 and ((k1 + 2 k2) + 2 k3) + k4 in that order; p_stack is
    # a copy, so neither the scenario's draw nor a caller's state is written
    p_stack = p_stack.copy()
    stage, total, k1, k2, k3, k4 = np.empty((6, n, 4, 4))
    # the truth now, at the half step and at the full step: slots that rotate,
    # the full step's becoming the next step's now
    now, mid, nxt = 0, 1, 2
    # a diverging state shows as a non-finite V at the next sample, not as
    # numpy overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        record(0, 0, tops[now], p_stack)
        for step in range(1, n_steps + 1):
            matmul(tops[now], e_half, tops[mid])
            matmul(tops[now], e_full, tops[nxt])
            rhs(now, p_stack, k1)
            rhs(mid, add(p_stack, multiply(half, k1, stage), stage), k2)
            rhs(mid, add(p_stack, multiply(half, k2, stage), stage), k3)
            rhs(nxt, add(p_stack, multiply(dt, k3, stage), stage), k4)
            add(k1, multiply(2.0, k2, total), total)
            add(total, multiply(2.0, k3, stage), total)
            add(total, k4, total)
            add(p_stack, multiply(sixth, total, total), p_stack)
            now, mid, nxt = nxt, now, mid
            if step % stride == 0:
                record(step // stride, step, tops[now], p_stack)

    return Trace(s, report, truth, aux, lyap), report


def _consensus_flow(lap: np.ndarray, t: float) -> np.ndarray:
    """expm(-L t) by uniformization, for a Laplacian L and a finite t >= 0.

    With c = max(1, largest degree), M = I - L / c is entrywise nonnegative
    with unit row sums, and expm(-L tau) = e^(-c tau) sum_k (c tau)^k M^k / k!.
    For tau = t / 2^s <= 1 / c the series is summed until its coefficient
    (c tau)^k / k!, which bounds every entry of the term, falls below rounding;
    the result is then squared s times. Every term and product is
    nonnegative, so nothing cancels. A t that is negative or not finite, or
    that needs more than MAX_FLOW_SQUARINGS squarings, raises ValueError.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"the consensus flow needs a finite t >= 0, got {t:g}")
    n = len(lap)
    c = max(1.0, float(lap.diagonal().max()))
    ct = c * t
    if not ct <= 2.0**MAX_FLOW_SQUARINGS:
        raise ValueError(
            f"the consensus flow at t = {t:g} is out of reach in finite precision: c t = "
            f"{ct:g} (c = {c:g}) needs more than {MAX_FLOW_SQUARINGS} squarings, each "
            f"doubling its rounding; keep c t <= 2^{MAX_FLOW_SQUARINGS}"
        )
    squarings = math.ceil(math.log2(ct)) if ct > 1.0 else 0
    x = ct / 2.0**squarings
    m = np.eye(n) - lap / c
    term, total = np.eye(n), np.eye(n)
    coeff, k = 1.0, 0
    while coeff >= 2.0**-53:   # the unit roundoff u
        k += 1
        coeff *= x / k
        term = term @ m * (x / k)
        total += term
    flow = total * math.exp(-x)
    for _ in range(squarings):
        flow = flow @ flow
    return flow


def closed_form_aligned(s: Scenario, t: float, initial_state: InitialState = None) -> np.ndarray:
    """Exact (n, 4, 4) aligned states at time t for the asymptotic law.

    The aligned states obey the constant-coefficient linear consensus flow
    dS/dt = -L S, agent by agent over the 4x4 blocks, so the solution is
    expm(-L t) applied to the stacked initial aligned states. Serves as the
    independent oracle for simulated trajectories. The flow is computed in
    numpy by uniformization (``_consensus_flow``): a nonnegative series at
    t / 2^s <= 1 / c, then s squarings, where c = max(1, largest degree). t
    must be finite and at least 0, and c t at most 2^MAX_FLOW_SQUARINGS,
    where the squarings' rounding reaches 2^-27; any other t raises
    ValueError.
    """
    if not isinstance(s.law, Asymptotic):
        raise ValueError("closed form applies to the asymptotic law only")
    t0, p0 = _initial_stacks(s, initial_state)
    flow = _consensus_flow(build_laplacian(s.topo), t)
    return np.einsum("ij,jab->iab", flow, t0 @ p0)


def lyapunov_chain_check(trace: Trace, lambda2: float, alpha: float) -> LyapunovCheck:
    """Verify the sampled decay inequality dV/dt <= -kappa V^((2-a)/2).

    dV/dt is estimated by central differences at interior samples; samples
    with V below 1e-12 are excluded (already settled). The tolerance is
    1e-3 * max(1, |dV/dt|) per sample. A lambda2 that is not finite and
    positive, or an alpha outside (0, 1), raises ValueError.
    """
    if not isinstance(trace.scenario.law, FiniteTime):
        raise ValueError("chain check applies to finite-time traces only")
    if not 0.0 < lambda2 < math.inf:
        raise ValueError(f"lambda2 must be finite and positive, got {lambda2}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    v = trace.lyapunov
    if len(v) < 3:
        raise ValueError("need at least three samples for central differences")
    h = trace.scenario.dt * trace.scenario.stride
    kappa = (2.0 * lambda2) ** ((2.0 - alpha) / 2.0)
    vdot = (v[2:] - v[:-2]) / (2.0 * h)
    v_in = v[1:-1]
    checked = v_in > LYAP_FLOOR
    bound = -kappa * v_in ** ((2.0 - alpha) / 2.0)
    tol = 1e-3 * np.maximum(1.0, np.abs(vdot))
    passed = vdot <= bound + tol
    fraction = float(passed[checked].mean()) if checked.any() else 1.0
    return LyapunovCheck(
        times=trace.times[1:-1],
        checked=checked,
        passed=passed,
        fraction_passed=fraction,
        kappa=kappa,
    )


def settling_time(trace: Trace) -> float | None:
    """First sampled time with V below the settled threshold, if any."""
    idx = np.nonzero(trace.lyapunov < SETTLED_V)[0]
    return float(trace.times[idx[0]]) if len(idx) else None
