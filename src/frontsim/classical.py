"""Classical-solution engine on one annihilation-free time segment.

The 2m interface positions satisfy the coupled ODE system

    x_k'(t) = (-1)^k * W(v(x_k(t), t)),    k = 1, ..., 2m,

where v(x, t) is reconstructed semi-analytically: each spatial point evolves
by the exact inside/outside flow maps, switching branch at the arrival times
of the interfaces that cross it.  Those times depend on x alone, so a read's
x-only work runs once per point of x; the flows run on the broadcast shape of
x and t.

The system is integrated with the Dormand-Prince 5(4) pair under
error-per-unit-step control, with its quartic dense output (Shampine 1986):
a step is accepted when both the embedded error and the gap between the
quartic and the cubic Hermite interpolant are within tol_step * h.  Each
weighted sum of stage slopes is one product and one numpy reduction along
the stage rows, which adds them in stage order, so its bits are those of a
loop over the stages.  The first trial step is sqrt(tol_step), or, for a
segment that continues a finished one after an annihilation, the step size
that segment's controller last proposed.  The right-hand side is smooth
except where a front crosses a kink of the field, whose positions never
move; steps are capped to end at the predicted crossing, and a step that
still crosses one is taken again to end there.  Gap closures (collisions of
adjacent interfaces), kink crossings and arrival times at given positions
are all roots of the quartic dense output, located by one bracketed Newton
rule (_invert_quartic); _quartic is the one form of a step's polynomial,
which every read, sample and root finder evaluates.  The one event
tolerance is the constant TOL_EVENT.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .kinetics import Parameters, flow_inside, flow_outside
from .state import IntervalSet, Profile, validate_initial, default_margin

__all__ = [
    "StepFailure",
    "DegenerateSpeed",
    "DegeneracyWarning",
    "EventKind",
    "EventRecord",
    "SegmentStats",
    "ClassicalSegment",
    "DensePath",
    "run_segment",
]


class StepFailure(RuntimeError):
    """The adaptive step controller could not satisfy the tolerance."""


class DegenerateSpeed(RuntimeError):
    """A front's end slope stopped or reversed its direction of motion: the
    fronts move one way, so the run cannot continue."""


class DegeneracyWarning(UserWarning):
    """An interface speed dropped below the non-degeneracy margin."""


class EventKind(str, Enum):
    MERGE = "merge"    # the gap between two adjacent excited intervals closes
    VANISH = "vanish"  # an excited interval contracts to a point


@dataclass(frozen=True)
class EventRecord:
    """One annihilation: two adjacent interfaces collide at time `time`."""

    time: float
    kind: EventKind
    indices: tuple[int, int]   # 1-based endpoint indices within the segment
    labels: tuple[int, int]    # persistent interface labels
    position: float
    components_before: int
    components_after: int

    @classmethod
    def collision(cls, time: float, i: int, labels, positions) -> EventRecord:
        """The record of live interfaces i and i + 1 (0-based) colliding at
        time, given every live interface's labels and positions then."""
        k = i + 1
        m = len(labels) // 2
        return cls(
            time=time,
            kind=EventKind.VANISH if k % 2 == 1 else EventKind.MERGE,
            indices=(k, k + 1),
            labels=(labels[i], labels[i + 1]),
            position=float(0.5 * (positions[i] + positions[i + 1])),
            components_before=m,
            components_after=m - 1,
        )


@dataclass
class SegmentStats:
    steps: int = 0
    rejected: int = 0
    min_gap: float = math.inf
    min_speed: float = math.inf
    degeneracy_events: list = field(default_factory=list)


# --- quartic dense output ------------------------------------------------

def _quartic(theta, h, y0, f0, y1, f1, d):
    """The cubic Hermite interpolant of (y0, f0) and (y1, f1) on a step of
    length h, plus theta^2 (1 - theta)^2 d."""
    t2 = theta * theta
    t3 = t2 * theta
    s = theta - t2
    return (
        (2 * t3 - 3 * t2 + 1) * y0
        + (t3 - 2 * t2 + theta) * h * f0
        + (-2 * t3 + 3 * t2) * y1
        + (t3 - t2) * h * f1
        + s * s * d
    )


def _quartic_deriv(theta, h, y0, f0, y1, f1, d):
    t2 = theta * theta
    return (
        (6 * t2 - 6 * theta) * y0 / h
        + (3 * t2 - 4 * theta + 1) * f0
        + (6 * theta - 6 * t2) * y1 / h
        + (3 * t2 - 2 * theta) * f1
        + 2 * (theta - t2) * (1 - 2 * theta) * d / h
    )


def _invert_quartic(t0, h, y0, f0, y1, f1, d, target, sign, lo=0.0, hi=1.0):
    """Times in [t0, t0 + h] at which the step's quartic reaches target.

    The arguments are arrays of one entry per query, or one value for all.
    The component moves in the direction `sign` and reaches target between
    the step fractions lo and hi (by default the whole step), so Newton's
    method runs inside that bracket, which bisection keeps when a Newton
    step leaves it, until its step is below 1e-14 in time or the residual
    is down to the rounding of the positions (slow fronts far from 0 reach
    that first).

    Each entry keeps its theta from the iteration in which it is done, so
    its value is that of a call for it alone, whatever the other entries.
    """
    denom = y1 - y0
    theta = np.clip((target - y0) / np.where(denom == 0.0, 1.0, denom), lo, hi)
    rounding = 8.0 * np.finfo(float).eps * np.maximum(np.abs(y0), np.abs(y1))
    done = np.zeros(theta.shape, dtype=bool)
    for _ in range(60):
        val = _quartic(theta, h, y0, f0, y1, f1, d) - target
        below = sign * val < 0.0
        lo = np.where(below, np.maximum(lo, theta), lo)
        hi = np.where(~below, np.minimum(hi, theta), hi)
        slope = _quartic_deriv(theta, h, y0, f0, y1, f1, d)
        step = val / np.where(slope == 0.0, np.inf, slope) / h
        nt = theta - step
        bad = ~np.isfinite(nt) | (nt < lo) | (nt > hi)
        nt = np.where(bad, 0.5 * (lo + hi), nt)
        converged = np.abs(nt - theta) * h <= 1e-14 * np.maximum(1.0, np.abs(t0))
        # an entry done before keeps its theta
        theta = np.where(done, theta, nt)
        done |= converged | (np.abs(val) <= rounding)
        if done.all():
            break
    return t0 + theta * h


# _scan_event samples each gap's quartic at these thetas; the derivative of
# sum_j c_j theta^j has the coefficients j c_j, j = 1..4
_SAMPLES = np.linspace(0.0, 1.0, 13)
_POWERS = np.arange(1.0, 5.0)
# _scan_event's rows c1..c4 of a gap's monomial coefficients in theta from
# its (g0, g1, h*s0, h*s1, gd), and twice the factor (1 + j/24) of |c_j| in
# its spread plus its dip
_GAP_COEFFS = np.array([
    [0.0, 0.0, 1.0, 0.0, 0.0],
    [-3.0, 3.0, -2.0, -1.0, 1.0],
    [2.0, -2.0, 1.0, 1.0, -2.0],
    [0.0, 0.0, 0.0, 0.0, 1.0],
])
_GAP_BOUND = 2.0 * (1.0 + _POWERS / 24.0)


class DensePath:
    """Accepted integration knots (t_i, y_i, f_i, d_i) with C1 quartic dense output.

    On the step from knot i - 1 to knot i the interpolant is the cubic
    Hermite polynomial of the end values and slopes plus
    theta^2 (1 - theta)^2 d_i, theta the fraction of the step covered: the
    4th-order continuous extension of the Dormand-Prince 5(4) pair
    (Shampine 1986).  The first knot's d is zero and never read.

    The knots live in arrays that double when full; arrays() returns
    read-only views of the filled rows, so appending costs O(1) amortized;
    the views are made once per change of the knots.
    """

    def __init__(self, t0: float, y0, f0):
        y0 = np.atleast_1d(np.asarray(y0, dtype=float))
        f0 = np.atleast_1d(np.asarray(f0, dtype=float))
        self._t = np.empty(16)
        self._Y = np.empty((16, y0.size))
        self._F = np.empty((16, y0.size))
        self._D = np.empty((16, y0.size))
        self._n = 0
        self._views = None
        self._put(float(t0), y0, f0, np.zeros(y0.size))

    def _put(self, t: float, y, f, d) -> None:
        self._views = None
        if self._n == self._t.size:
            self._t = np.resize(self._t, 2 * self._n)
            self._Y = np.resize(self._Y, (2 * self._n, self.dim))
            self._F = np.resize(self._F, (2 * self._n, self.dim))
            self._D = np.resize(self._D, (2 * self._n, self.dim))
        self._t[self._n] = t
        self._Y[self._n] = y
        self._F[self._n] = f
        self._D[self._n] = d
        self._n += 1

    def __len__(self) -> int:
        return self._n

    @property
    def dim(self) -> int:
        return self._Y.shape[1]

    @property
    def t_start(self) -> float:
        return float(self._t[0])

    @property
    def t_end(self) -> float:
        return float(self._t[self._n - 1])

    def append(self, t: float, y, f, d) -> None:
        if t <= self._t[self._n - 1]:
            raise ValueError("knot times must increase")
        self._put(float(t), y, f, d)

    def truncate_last(self, t_cut: float) -> None:
        """Shorten the final step to end at t_cut, keeping the same quartic."""
        n = self._n
        if n < 2 or not (self._t[n - 2] < t_cut <= self._t[n - 1]):
            raise ValueError("t_cut must lie inside the final step")
        y_cut = self.eval(t_cut)
        f_cut = self.deriv(t_cut)
        # theta^2 (1 - theta)^2 carries the only quartic term, so the cut step
        # keeps the polynomial with d scaled by the fourth power of its length
        s = (t_cut - self._t[n - 2]) / (self._t[n - 1] - self._t[n - 2])
        self._views = None
        self._t[n - 1] = float(t_cut)
        self._Y[n - 1] = y_cut
        self._F[n - 1] = f_cut
        self._D[n - 1] *= s**4

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self._views is None:
            n = self._n
            self._views = (self._t[:n], self._Y[:n], self._F[:n], self._D[:n])
            for a in self._views:
                a.flags.writeable = False
        return self._views

    def last(self) -> tuple[float, np.ndarray, np.ndarray]:
        n = self._n - 1
        return float(self._t[n]), self._Y[n].copy(), self._F[n].copy()

    def _step_data(self, tq: np.ndarray):
        """(theta, h, y0, f0, y1, f1, d) of the step holding each query time."""
        ts, Y, F, D = self.arrays()
        i = np.clip(np.searchsorted(ts, tq, side="right") - 1, 0, len(ts) - 2)
        h = (ts[i + 1] - ts[i])[:, None]
        theta = (tq[:, None] - ts[i][:, None]) / h
        return theta, h, Y[i], F[i], Y[i + 1], F[i + 1], D[i + 1]

    def _read(self, t, poly, first: np.ndarray) -> np.ndarray:
        """poly on the step holding each time; the first knot's row of
        `first` while the path holds one knot."""
        tq = np.atleast_1d(np.asarray(t, dtype=float))
        if self._n == 1:
            out = np.broadcast_to(first[0], tq.shape + (self.dim,)).copy()
        else:
            out = poly(*self._step_data(tq))
        return out[0] if np.ndim(t) == 0 else out

    def eval(self, t) -> np.ndarray:
        return self._read(t, _quartic, self._Y)

    def deriv(self, t) -> np.ndarray:
        return self._read(t, _quartic_deriv, self._F)

    def invert_col(self, col, y, sign) -> np.ndarray:
        """Arrival times of strictly monotone components at positions y.

        col is one component, or one per query, and sign its direction of
        motion; both broadcast with y.  All queries go to one _invert_quartic
        call, whose entries each stop on their own, so every value equals
        that of a one-point call, in whatever order the queries come.  Each
        run of equal columns is located on its column's knots with one
        search, so a caller with many columns saves searches by listing each
        column's queries together.

        Returns t_start for positions already passed at the initial time and
        inf for positions beyond the range covered so far.
        """
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        shape = ys.shape
        yq, col, sign = (a.ravel() for a in np.broadcast_arrays(ys, col, sign))
        cuts = (np.flatnonzero(col[1:] != col[:-1]) + 1).tolist()
        ts, Y, F, D = self.arrays()
        idx = np.empty(yq.size, dtype=np.intp)
        for a, b in zip([0, *cuts], [*cuts, col.size]):
            if a < b:
                c, s = col[a], sign[a]
                idx[a:b] = np.searchsorted(s * Y[:, c], s * yq[a:b], side="left")
        # idx 0: at or behind the start; past the last knot: not reached yet
        out = np.where(idx == 0, ts[0], math.inf)
        mid = np.flatnonzero((idx > 0) & (idx < len(ts)))
        if mid.size:
            i = idx[mid] - 1
            # flat indices of (i, col) and (i + 1, col) in the knot arrays
            k0 = i * self.dim + col[mid]
            k1 = k0 + self.dim
            Yf, Ff, Df = Y.ravel(), F.ravel(), D.ravel()
            out[mid] = _invert_quartic(
                ts[i], ts[i + 1] - ts[i], Yf[k0], Ff[k0], Yf[k1], Ff[k1], Df[k1], yq[mid], sign[mid],
            )
        return out.reshape(shape)


# Dormand-Prince 5(4) (Dormand & Prince 1980): the nodes and stage rows of
# stages 2..6, the 5th-order weights (stage 7 is the slope at the new point,
# reused as the next step's first), the error weights of stages 1..7 (5th
# minus 4th order) and their weights of d in the 4th-order continuous
# extension (Shampine 1986).
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_DP_D = (
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)


def _weights(row) -> np.ndarray:
    """A row of stage weights as the column that scales the first len(row)
    rows of _dopri5_step's slope array.  Those rows are the stage slopes
    minus fn, so the first is +0; its weight is 0, so that its product is
    +0 whatever the sign of the tableau's weight, and a sum starts at +0
    whether numpy starts a reduction from its first row or from 0."""
    w = np.array(row, dtype=float)
    w[0] = 0.0
    return w[:, None]


_DP_ROWS = tuple((c, _weights(row)) for c, row in zip(_DP_C, _DP_A))
_DP_C_COL = np.array(_DP_C)[:, None]
_DP_B_W, _DP_E_W, _DP_D_W = _weights(_DP_B), _weights(_DP_E), _weights(_DP_D)
# the D and E columns as one (2, 7, 1) block: both read all seven slope
# rows once f_new is known, so one product and one reduction give both sums
_DP_DE_W = np.stack([_DP_D_W, _DP_E_W])


def _stage_sum(weights: np.ndarray, dk: np.ndarray) -> np.ndarray:
    """sum_i w_i dk_i over the first rows of dk, in stage order, for a
    (rows, 1) column of weights, or for each column of a (k, rows, 1) block.

    One product and one reduction along the stage axis: with at most 7 rows
    (never numpy's 8-way pairwise blocks), numpy adds them one row after
    another from +0, so every entry is the stage-order loop's sum bit for
    bit.
    """
    return np.add.reduce(weights * dk[: weights.shape[-2]], axis=-2)


def _dopri5_step(f, tn: float, yn, fn, h: float, tol: float, t_goal: float, stats: SegmentStats):
    """One accepted Dormand-Prince 5(4) step of y' = f(t, y) from (tn, yn).

    fn is f(tn, yn) (first same as last).  A trial step is accepted when
    both its embedded error estimate and its interpolant bump |d|/16 (the
    largest gap between the quartic dense output and the cubic Hermite one)
    are within tol * h, else retried shorter; StepFailure, naming the tests
    that failed, once h reaches h_min.  Every weighted sum runs over the
    stage slopes minus fn, so a constant slope is integrated exactly.  An
    end within rounding of t_goal snaps onto it.  Counts steps and
    rejections in stats.  Returns (t_new, y_new, f(t_new, y_new), d, the
    next trial h).
    """
    h_min = 1e-13 * max(1.0, abs(tn))
    # row i: the slope of stage i + 1 minus fn; row 0 stays +0
    dk = np.zeros((7, np.size(fn)))
    c_fn = _DP_C_COL * fn  # c * fn of stages 2..6, one row each
    while True:
        for i, (c, row) in enumerate(_DP_ROWS, 1):
            np.subtract(f(tn + c * h, yn + h * (c_fn[i - 1] + _stage_sum(row, dk))), fn, out=dk[i])
        y_new = yn + h * (fn + _stage_sum(_DP_B_W, dk))
        f_new = f(tn + h, y_new)
        np.subtract(f_new, fn, out=dk[6])
        d, e = h * _stage_sum(_DP_DE_W, dk)
        embedded = np.abs(e)
        bump = np.abs(d) / 16.0
        errs = np.maximum(embedded, bump)
        err = float(errs.max())
        allowed = tol * h
        if err <= allowed:
            break
        if h <= h_min:
            failed = " and ".join(
                name for name, e in (("embedded error", embedded), ("dense-output bump |d|/16", bump))
                if not e.max() <= allowed
            )
            raise StepFailure(
                f"cannot satisfy tol_step={tol:g} at t={tn!r}: h={h:.3e}, "
                f"err={err:.3e} > allowed={allowed:.3e}, "
                f"largest at interface k={int(np.argmax(errs)) + 1}; failed test: {failed}"
            )
        stats.rejected += 1
        h = max(h * max(0.2, 0.9 * (allowed / err) ** 0.25), h_min)
    stats.steps += 1
    t_new = tn + h
    if t_new >= t_goal - 1e-13 * max(1.0, abs(t_goal)):
        t_new = t_goal
    grow = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (allowed / err) ** 0.25))
    return t_new, y_new, f_new, d, h * grow


class _ContinuedField:
    """The field of a finished segment at its end time.

    The profile a segment after an annihilation starts from, in place of a
    resampled copy: through `segment` that next segment folds its field over
    the whole history from the first profile, so no evaluation recurses
    through earlier segments.  xs are the field's kinks (see
    ClassicalSegment); nothing is evaluated until eval is called.
    """

    def __init__(self, seg: ClassicalSegment, xs: np.ndarray):
        self.segment = seg
        self.xs = xs

    def eval(self, x) -> np.ndarray | float:
        return self.segment.evaluate_v(x, self.segment.t_end)


class ClassicalSegment:
    """One annihilation-free piece of the evolution, advanced step by step.

    Mutated by a single driver through advance(); once finished it is an
    immutable record queryable from anywhere.
    """

    def __init__(
        self,
        params: Parameters,
        omega_start: IntervalSet,
        profile_start: Profile | _ContinuedField,
        t_start: float,
        t_end: float,
        *,
        tol_step: float = 1e-8,
        margin: float | None = None,
        labels: tuple[int, ...] | None = None,
    ):
        """Start a segment from (omega_start, profile_start) at t_start.

        profile_start is a fresh profile, or a _ContinuedField: the field of
        a finished segment at its end time, which weak's surgery builds.  A
        continuation starts at that end time exactly, else ValueError; it is
        never read as a fresh start.
        """
        if not t_end > t_start:
            raise ValueError("segment needs t_end > t_start")
        continued = isinstance(profile_start, _ContinuedField)
        if continued and profile_start.segment.t_end != t_start:
            t_from = profile_start.segment.t_end
            raise ValueError(f"a continuation starts at its segment's end t={t_from!r}, not at t={t_start!r}")
        if not tol_step > 0.0:
            raise ValueError(f"tol_step must be positive, got {tol_step!r}")
        # one margin for the start check and the degeneracy warning
        self.margin = default_margin(params) if margin is None else float(margin)
        checks = validate_initial(params, omega_start, profile_start, self.margin)
        self.params = params
        self.omega_start = omega_start
        self.profile_start = profile_start
        self.t_start = float(t_start)
        self.t_goal = float(t_end)
        self.tol_step = float(tol_step)
        self.stats = SegmentStats()
        self.event: EventRecord | None = None

        n = len(omega_start.endpoints)
        self.labels = tuple(labels) if labels is not None else tuple(range(1, n + 1))
        if len(self.labels) != n:
            raise ValueError("one label per endpoint required")
        self._parity = np.array([(-1.0) ** k for k in range(1, n + 1)])
        # _rhs's parity*(a - b*v) as (parity*-b)*v + parity*a: the same bits
        # in two operations instead of three, except that a zero speed of an
        # odd front reads +0, not -0
        self._rhs_b = self._parity * -params.b
        self._rhs_a = self._parity * params.a
        x0 = np.asarray(omega_start.endpoints, dtype=float)
        # the initial slopes are the endpoint velocities the validation read
        f0 = np.array([c.velocity for c in checks], dtype=float)
        self._signs = np.sign(f0)
        self._path = DensePath(self.t_start, x0, f0)
        self.finished = not n
        self._h = min(math.sqrt(self.tol_step), 0.25 * (self.t_goal - self.t_start))
        self._degeneracy_flagged = False
        # A continuation's first trial step is its segment's last proposed
        # one.  The field's kinks never move: the first profile's knots and
        # endpoints and every event position since (a surviving front's speed
        # is continuous through a surgery); a continuation's knots are these.
        if continued:
            prior = profile_start.segment
            self._chain = (*prior._chain, prior)
            self._h = prior._h
            self._kinks = np.asarray(profile_start.xs, dtype=float)
        else:
            self._chain = ()
            self._kinks = np.unique(np.concatenate([np.asarray(profile_start.xs, dtype=float), x0]))
        # the kinks between nan ends: _next_kink's "none" without a mask
        self._kink_ends = np.concatenate([[math.nan], self._kinks, [math.nan]])
        self._index_history(x0)

    # -- basic queries ----------------------------------------------------

    @property
    def n_interfaces(self) -> int:
        return len(self.labels)

    @property
    def t_end(self) -> float:
        if self.n_interfaces == 0:
            return self.t_goal
        return self._path.t_end

    def positions(self, t) -> np.ndarray:
        self._check_time(t, self.t_start)
        return self._path.eval(t)

    def _check_time(self, t, t_from: float) -> None:
        tq = np.asarray(t, dtype=float)
        slack = 1e-12 * max(1.0, abs(self.t_end))
        # written so that nan, which fails every comparison, fails it too
        if not np.all((tq >= t_from - slack) & (tq <= self.t_end + slack)):
            raise ValueError(f"time outside [{t_from}, {self.t_end}]")

    # -- field reconstruction ---------------------------------------------

    def _index_history(self, x0: np.ndarray) -> None:
        """Index the fold by front: one row per interface of the first segment
        for its whole life, with its direction and first position ((fronts,
        1), to broadcast against the points), and per segment its reach, how
        far it has moved by the segment's end (by the last step here; advance
        keeps it); a finished segment's row never changes, so the chain's
        segments hold prefixes of this table.  _rows, the rows of the
        segment's fronts, ascend, as survivors keep their order.

        Raises RuntimeError when a surviving front has turned back: a row
        takes its front as monotone.
        """
        if self._chain:
            prior = self._chain[-1]
            for name in ("_origin", "_t_origin", "_row_of", "_sign", "_from", "_below"):
                setattr(self, name, getattr(prior, name))
            self._reach = np.vstack([prior._reach, prior._reach[-1]])
            for i, s in enumerate(self._chain):
                s._reach = self._reach[: i + 1]
            # the intervals (lo, hi] whose phase flips at this start (_toggles),
            # between the sorted thresholds of the fronts the surgery removed
            kept = set(self.labels)
            gone = np.array([lab not in kept for lab in prior.labels], dtype=bool)
            end = prior._path.arrays()[1][-1][gone]
            th = np.sort(np.where(prior._signs[gone] < 0, np.nextafter(end, -math.inf), end))
            self._lo = np.vstack([prior._lo, th[0::2, None]])
            self._hi = np.vstack([prior._hi, th[1::2, None]])
            self._at = np.vstack([prior._at, np.full((th.size // 2, 1), self.t_start)])
        else:
            self._origin, self._t_origin = self.profile_start, self.t_start
            self._row_of = dict(zip(self.labels, range(self.n_interfaces)))
            self._sign = self._signs[:, None]
            self._from = self._sign * x0[:, None]
            # a point past this bound has the front below it: on the start
            # position, for t -> t_start+, when the front moves left (x >= x0
            # is x > the float below x0), the limit continuity of v needs
            self._below = np.where(self._sign < 0, np.nextafter(x0[:, None], -math.inf), x0[:, None])
            self._reach = self._from.T.copy()
            self._lo = self._hi = self._at = np.empty((0, 1))
        self._rows = np.array([self._row_of[lab] for lab in self.labels], dtype=np.intp)
        back = np.flatnonzero(self._signs != self._sign[self._rows, 0])
        if back.size:
            raise RuntimeError(f"invariant violated: front {self.labels[back[0]]} turned back by t={self.t_start!r}")

    def _arrivals(self, xs: np.ndarray) -> np.ndarray | None:
        """Crossing times at xs, one row per front of the history and one
        entry per point; inf where the front never crossed the point after
        the start of the segment that reached it; None when none did.

        A front is monotone, so it crossed the points between its first
        position and its reach, each in the first segment whose reach meets
        it.  Only those pairs are inverted, with one invert_col call per
        segment path over all of its pairs, listed front by front, each at
        its column there: its rank among the segment's rows.
        """
        # ahead is freed before the inversions, whose temporaries set the peak memory
        ahead = self._sign * xs
        swept = ahead > self._from
        swept &= ahead <= self._reach[-1:].T
        del ahead
        if not np.count_nonzero(swept):
            return None
        k = np.flatnonzero(swept)
        f, p = np.divmod(k, xs.size)
        groups = [slice(None)]
        if self._chain:
            # a front's reach never falls, so the segment that crossed a pair
            # is the number of segments whose reach falls short of its point
            seg = np.count_nonzero(self._reach[:, f] < self._sign[f, 0] * xs[p], axis=0)
            order = np.argsort(seg, kind="stable")
            groups = np.split(order, np.searchsorted(seg[order], np.arange(1, len(self._reach))))
        T = np.full(swept.shape, math.inf)
        for s, i in zip((*self._chain, self), groups):
            fi = f[i]
            if fi.size:
                t = s._path.invert_col(np.searchsorted(s._rows, fi), xs[p[i]], self._sign[fi, 0])
                # crossings at or before a segment's start are part of its initial state
                t[t <= s.t_start] = math.inf
                T.flat[k[i]] = t
        return T

    def _toggles(self, pts: np.ndarray, T: np.ndarray | None) -> np.ndarray | None:
        """T plus a row per interval (lo, hi], holding its start time at the
        points inside it, whose phase flips there with no crossing, else
        inf; T when no point lies in one.

        A monotone front that ended at p lies below x exactly when x > p,
        or x >= p (x > the float below p) when it moved left: its
        threshold.  Of the fronts removed at one start, an odd number lie
        below x exactly when x lies between their sorted thresholds paired
        off in order.
        """
        inside = (self._lo < pts) & (pts <= self._hi)
        if not np.count_nonzero(inside):
            return T
        rows = np.where(inside, self._at, math.inf)
        return rows if T is None else np.concatenate([T, rows])

    def _v_field(self, xs: np.ndarray, tq) -> np.ndarray:
        """v(xs, tq): the exact flows folded from the first segment's profile
        over each point's whole in/out history, whatever the segment.

        xs is an array of points of any shape, and tq one time for all of
        them (a float) or an array of times of the shape of the result, to
        which xs's shape broadcasts.  The x-only work (phases, crossings,
        toggles, their sort, the origin's values) runs once per point of xs;
        the flows run on the broadcast shape, each entry with the dt
        sequence of a one-point read.  A point starts in its phase among the
        first segment's endpoints and toggles at each crossing and at each
        segment start whose interval (lo, hi] holds it (_toggles), so the
        work follows its phase changes, not the number of segments.
        """
        pts = xs.ravel()
        # inside when an odd number of the first segment's fronts lie below
        phase0 = np.logical_xor.reduce(self._below < pts, axis=0).reshape(xs.shape)
        T = self._arrivals(pts)
        if self._lo.size:
            T = self._toggles(pts, T)
        n_cross = 0
        if T is not None:
            T.sort(axis=0)
            n_cross = int(np.max(np.count_nonzero(np.isfinite(T), axis=0), initial=0))
            # each event row in xs's shape, to broadcast against tq
            T = T.reshape(T.shape[:1] + xs.shape)
        v = np.empty(xs.shape if isinstance(tq, float) else tq.shape)
        v[...] = self._origin.eval(xs)
        prev = self._t_origin
        # past the last finite event every point has flowed up to tq
        for slot in range(n_cross + 1):
            bend = tq if slot == n_cross else np.minimum(T[slot], tq)
            self._flow(v, phase0 if slot % 2 == 0 else ~phase0, bend - prev)
            prev = bend
        return v

    def _flow(self, v: np.ndarray, inside: np.ndarray, dt) -> None:
        """Flow each entry of v in place by dt (a float, or an array of v's
        shape) in the phase inside marks (an array that broadcasts to v's
        shape); entries with dt <= 0 stay.

        The rest state v = 0 is a fixed point of the quiescent flow
        (flow_outside maps +0.0 to +0.0 exactly), so the outside entries are
        left as they are when every one of them is +0.0: the one float whose
        bits are all zero.
        """
        one_dt = isinstance(dt, float)
        if one_dt:
            if not dt > 0.0:
                return
            n_in = np.count_nonzero(inside)
            n_out = v.size - n_in
            # the outside mask is read only when the phases mix
            m_in, m_out = inside, (~inside if n_in and n_out else None)
        else:
            moving = dt > 0.0
            m_in, m_out = inside & moving, ~inside & moving
            n_in, n_out = np.count_nonzero(m_in), np.count_nonzero(m_out)
        for n, mask, flow, at_rest in (
            (n_in, m_in, flow_inside, False),
            (n_out, m_out, flow_outside, True),
        ):
            if not n:
                continue
            # every entry flows: v and dt as they are, no mask read
            whole = n == v.size
            vm = v if whole else v[mask]
            if at_rest and not np.count_nonzero(vm.view(np.int64)):
                continue
            t = dt if whole or one_dt else dt[mask]
            if whole:
                v[...] = flow(self.params, v, t)
            else:
                v[mask] = flow(self.params, vm, t)

    def evaluate_v(self, x, t) -> np.ndarray | float:
        """Recovery field v(x, t) for any t from the start of the history this
        segment continues to its own end (x, t broadcastable).

        The x-only work runs once per point of x; the flows run on the
        broadcast shape.  So an outer grid, x of shape (1, n) and t of shape
        (m, 1), inverts each crossing once per x, not once per (x, t) entry,
        and every entry reads what a one-point call reads.

        Raises ValueError for a time outside that span or a non-finite x.
        """
        self._check_time(t, self._t_origin)
        xs = np.asarray(x, dtype=float)
        # the quiescent flow maps nan to the rest state, so nan would read 0
        if not np.isfinite(xs).all():
            raise ValueError("position must be finite")
        ts = np.asarray(t, dtype=float)
        out = self._v_field(xs, np.broadcast_to(ts, np.broadcast_shapes(xs.shape, ts.shape)))
        if np.ndim(x) == 0 and np.ndim(t) == 0:
            return float(out)
        return out

    # -- integration -------------------------------------------------------

    def _rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        return self._rhs_b * self._v_field(x, t) + self._rhs_a

    def advance(self) -> bool:
        """Take one accepted adaptive step; returns False once finished."""
        if self.finished:
            return False
        tn, xn, fn = self._path.last()
        kink = self._next_kink(xn, fn)
        h = min(self._h, self.t_goal - tn, self._step_cap(xn, fn, kink))
        while True:
            t_new, x_new, f_new, d, self._h = _dopri5_step(
                self._rhs, tn, xn, fn, h, self.tol_step, self.t_goal, self.stats
            )
            t_kink = self._kink_crossing(tn, xn, fn, kink, t_new, x_new, f_new, d)
            if t_kink is None:
                break
            # the step carried a front across a kink: take it again, ending there
            self.stats.steps -= 1
            self.stats.rejected += 1
            h = t_kink - tn
        # signed, so that a front that stops or turns back reads <= 0 and
        # ends the run before its step enters the path
        speeds = self._signs * f_new
        slowest = float(speeds.min())
        if not slowest > 0.0:
            raise DegenerateSpeed(
                f"front {self.labels[int(speeds.argmin())]} stopped or turned back: its end slope "
                f"along its direction is {slowest:.3e} at t={t_new!r}, h={t_new - tn!r}"
            )
        self._path.append(t_new, x_new, f_new, d)
        if x_new.size > 1:
            self.stats.min_gap = min(self.stats.min_gap, float((x_new[1:] - x_new[:-1]).min()))
        self.stats.min_speed = min(self.stats.min_speed, slowest)
        speed = float(np.abs(f_new).min())
        if not self._degeneracy_flagged and speed < self.margin:
            self._degeneracy_flagged = True
            self.stats.degeneracy_events.append((t_new, speed))
            warnings.warn(
                f"interface speed below margin {self.margin:g} at t={t_new:g}",
                DegeneracyWarning,
                stacklevel=2,
            )

        hit = self._scan_event()
        # a closure within rounding of t_goal, where a step end snaps onto
        # it, is not an event of this run: the segment just ends at t_goal
        if hit is not None and hit[0] < self.t_goal - 1e-13 * max(1.0, abs(self.t_goal)):
            self._finalize_event(*hit)
        elif t_new >= self.t_goal:
            self.finished = True
        self._reach[-1, self._rows] = self._signs * self._path.arrays()[1][-1]
        return True

    def _next_kink(self, xn: np.ndarray, fn: np.ndarray) -> np.ndarray:
        """Per front, the nearest known kink ahead of it in its direction of
        motion and farther than it moves in 16*TOL_EVENT; nan where none."""
        reach = xn + fn * (16.0 * TOL_EVENT)
        # indices into _kink_ends, whose nan ends stand for "none"
        i = np.where(
            self._signs > 0,
            self._kinks.searchsorted(reach, side="right") + 1,
            self._kinks.searchsorted(reach, side="left"),
        )
        return self._kink_ends[i]

    def _step_cap(self, xn: np.ndarray, fn: np.ndarray, kink: np.ndarray) -> float:
        """Linear-predicted time to the crossing of each front's next kink
        (from _next_kink), or to the next gap closure plus 16*TOL_EVENT so
        that the closure falls inside the step.

        A step that reaches a kink earlier than predicted is taken again
        (see _kink_crossing); one that falls short leaves the kink so close
        ahead that the next prediction is nearly exact.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            to_kinks = (kink - xn) / fn
            gap = (xn[1:] - xn[:-1]) / (fn[:-1] - fn[1:])
        # the least positive entry of each; nan is not positive
        to_kink = float(np.minimum.reduce(to_kinks, initial=math.inf, where=to_kinks > 0.0))
        to_gap = float(np.minimum.reduce(gap, initial=math.inf, where=gap > 0.0))
        return min(to_kink, to_gap + 16.0 * TOL_EVENT)

    def _kink_crossing(self, tn, xn, fn, kink, t_new, x_new, f_new, d) -> float | None:
        """Earliest time at which the trial step (tn, t_new) carries a front
        across its next kink (_next_kink at the step's start), located on the
        step's quartic; None unless it lies more than 16*TOL_EVENT inside the
        step."""
        crossed = self._signs * (x_new - kink) > 0.0
        if not np.count_nonzero(crossed):
            return None
        t_cross = _invert_quartic(
            tn, t_new - tn, xn[crossed], fn[crossed], x_new[crossed],
            f_new[crossed], d[crossed], kink[crossed], self._signs[crossed],
        )
        t_kink = float(np.min(t_cross))
        slack = 16.0 * TOL_EVENT
        return t_kink if tn + slack < t_kink < t_new - slack else None

    def _scan_event(self) -> tuple[float, int] | None:
        """Earliest gap closure inside the last accepted step, if any, as
        (time, index of the gap's left interface).

        Each gap's data (g0, g1, h*s0, h*s1, gd) form one block, and one
        matrix product gives its monomial coefficients c1..c4 in theta (c0
        is g0).  A gap stays above g0 minus its spread sum_j |c_j| on
        [0, 1], and between samples 1/12 apart it dips at most its dip
        sum_j j |c_j| / 24 below the lower one.  So a gap whose g0 exceeds
        twice its spread plus its dip cannot reach 0, and the search below
        would return None for it, since none of its samples falls to its
        dip (the factor 2 leaves g0 / 2 for their rounding); most steps end
        there, when every gap does.  Otherwise
        each gap whose samples fall to its dip is searched for its first
        sign change, and one _invert_quartic call locates every such
        closure by Newton's method inside its bracket.  A later pair wins
        only when it closes more than TOL_EVENT earlier, so closures within
        TOL_EVENT of each other go to the leftmost pair.
        """
        n = self.n_interfaces
        if n < 2 or len(self._path) < 2:
            return None
        ts, Y, F, D = self._path.arrays()
        t0 = ts[-2]
        h = float(ts[-1] - t0)
        block = np.concatenate((Y[-2:], F[-2:], D[-1:]))
        gaps = block[:, 1:] - block[:, :-1]
        gaps[2:4] *= h
        c = _GAP_COEFFS.dot(gaps)
        abs_c = np.abs(c)
        if np.count_nonzero(gaps[0] > _GAP_BOUND.dot(abs_c)) == n - 1:
            return None
        # gap i's quartic takes the unscaled slopes
        g0, g1, gd = gaps[0], gaps[1], gaps[4]
        s0, s1 = F[-2:, 1:] - F[-2:, :-1]
        dip = _POWERS @ abs_c / 24.0
        near = np.flatnonzero(_quartic(_SAMPLES[:, None], h, g0, s0, g1, s1, gd).min(axis=0) <= dip)
        # the first pair of thetas between which each near gap closes, from
        # the samples and the stationary points of its quartic, which catch
        # dips between samples (any real part in (0, 1) is kept, an extra
        # sample costs nothing)
        pairs, lo, hi = [], [], []
        for i in near:
            roots = np.polynomial.polynomial.polyroots(_POWERS * c[:, i]).real
            thetas = np.unique(np.concatenate([_SAMPLES, roots[(roots > 0.0) & (roots < 1.0)]]))
            closed = np.flatnonzero(_quartic(thetas[1:], h, g0[i], s0[i], g1[i], s1[i], gd[i]) <= 0.0)
            if closed.size:
                pairs.append(i)
                lo.append(thetas[closed[0]])
                hi.append(thetas[closed[0] + 1])
        if not pairs:
            return None
        i = np.array(pairs)
        # the gap falls to 0 at the closure
        t_a = _invert_quartic(t0, h, g0[i], s0[i], g1[i], s1[i], gd[i], 0.0, -1.0, np.array(lo), np.array(hi))
        # ties within TOL_EVENT resolve to the leftmost pair, i.e. first i
        best = 0
        for j in range(1, i.size):
            if t_a[j] < t_a[best] - TOL_EVENT:
                best = j
        return float(t_a[best]), int(i[best])

    def _finalize_event(self, t_a: float, i: int) -> None:
        t_prev = self._path.arrays()[0][-2]
        if t_a <= t_prev:
            t_a = np.nextafter(t_prev, math.inf)
        self._path.truncate_last(t_a)
        self.event = EventRecord.collision(float(t_a), i, self.labels, self._path.last()[1])
        self.finished = True


# steps allowed to one segment
MAX_STEPS = 500_000
# the event tolerance: the window within which two gap closures count as
# simultaneous, the slack 16*TOL_EVENT of the step cap and of the kink
# crossing, and the floor of the surgery's zero gap, below which it takes two
# fronts as collided
TOL_EVENT = 1e-10


def run_segment(
    params: Parameters,
    omega_start: IntervalSet,
    profile_start: Profile | _ContinuedField,
    t_start: float,
    t_end: float,
    *,
    tol_step: float = 1e-8,
    margin: float | None = None,
    labels: tuple[int, ...] | None = None,
) -> tuple[ClassicalSegment, EventRecord | None]:
    """Integrate from t_start until t_end or the first annihilation."""
    seg = ClassicalSegment(
        params,
        omega_start,
        profile_start,
        t_start,
        t_end,
        tol_step=tol_step,
        margin=margin,
        labels=labels,
    )
    while not seg.finished:
        if seg.stats.steps >= MAX_STEPS:
            raise StepFailure(f"step budget {MAX_STEPS} exhausted at t={seg.t_end!r}")
        seg.advance()
    return seg, seg.event

