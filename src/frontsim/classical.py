"""Classical-solution engine on one annihilation-free time segment.

The 2m interface positions satisfy the coupled ODE system

    x_k'(t) = (-1)^k * W(v(x_k(t), t)),    k = 1, ..., 2m,

where v(x, t) is reconstructed semi-analytically: each spatial point evolves
by the exact inside/outside flow maps, switching branch at the arrival times
of the interfaces that cross it.  The system is integrated with the
Dormand-Prince 5(4) pair under error-per-unit-step control, with its quartic
dense output (Shampine 1986): a step is accepted when both the embedded error
and the gap between the quartic and the cubic Hermite interpolant are within
tol_step * h.  The first trial step is sqrt(tol_step), or, for a segment
that continues a finished one after an annihilation, the step size that
segment's controller last proposed.  The right-hand side is smooth except
where a front crosses a kink of the field, whose positions never move; steps
are capped to end at the predicted crossing, and a step that still crosses
one is taken again to end there.  Gap closures (collisions of adjacent
interfaces), kink crossings and arrival times at given positions are all
roots of the quartic dense output, located by one bracketed Newton rule
(_invert_quartic).  tol_event sets the window within which two closures
count as simultaneous, the slacks of the step cap and the kink crossing,
and the gap below which surgery takes interfaces as collided.
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
    "DegeneracyWarning",
    "EventKind",
    "EventRecord",
    "SegmentStats",
    "ClassicalSegment",
    "DensePath",
    "run_segment",
    "integrate_adaptive",
]


class StepFailure(RuntimeError):
    """The adaptive step controller could not satisfy the tolerance."""


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

def _quartic_weights(theta):
    """The factors of y0, h*f0, y1, h*f1 and d in _quartic at theta."""
    t2 = theta * theta
    t3 = t2 * theta
    s = theta - t2
    return 2 * t3 - 3 * t2 + 1, t3 - 2 * t2 + theta, -2 * t3 + 3 * t2, t3 - t2, s * s


def _quartic_at(weights, h, y0, f0, y1, f1, d):
    """_quartic from the weights of its theta."""
    w0, w1, w2, w3, w4 = weights
    return w0 * y0 + w1 * h * f0 + w2 * y1 + w3 * h * f1 + w4 * d


def _quartic(theta, h, y0, f0, y1, f1, d):
    """The cubic Hermite interpolant of (y0, f0) and (y1, f1) on a step of
    length h, plus theta^2 (1 - theta)^2 d."""
    return _quartic_at(_quartic_weights(theta), h, y0, f0, y1, f1, d)


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


# _scan_event samples each gap's quartic at these thetas (a column, with its
# weights made once); the derivative of sum_j c_j theta^j has the
# coefficients j c_j, j = 1..4
_SAMPLES = np.linspace(0.0, 1.0, 13)
_SAMPLE_WEIGHTS = _quartic_weights(_SAMPLES[:, None])
_POWERS = np.arange(1.0, 5.0)


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

    def eval(self, t) -> np.ndarray:
        tq = np.atleast_1d(np.asarray(t, dtype=float))
        if self._n == 1:
            out = np.broadcast_to(self._Y[0], tq.shape + (self.dim,)).copy()
        else:
            out = _quartic(*self._step_data(tq))
        return out[0] if np.ndim(t) == 0 else out

    def deriv(self, t) -> np.ndarray:
        tq = np.atleast_1d(np.asarray(t, dtype=float))
        if self._n == 1:
            out = np.broadcast_to(self._F[0], tq.shape + (self.dim,)).copy()
        else:
            out = _quartic_deriv(*self._step_data(tq))
        return out[0] if np.ndim(t) == 0 else out

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


def _terms(weights) -> tuple[tuple[float, int], ...]:
    """The (weight, stage index) pairs of a row's nonzero weights after the
    first stage, in order (see _combine)."""
    return tuple((w, i) for i, w in enumerate(weights) if w != 0.0 and i > 0)


_DP_ROWS = tuple((c, _terms(row)) for c, row in zip(_DP_C, _DP_A))
_DP_B_TERMS, _DP_E_TERMS, _DP_D_TERMS = _terms(_DP_B), _terms(_DP_E), _terms(_DP_D)


def _combine(terms, dk):
    """sum(w_i dk_i) in stage order.  dk[0] is +0, so the first stage's term
    only starts the sum at +0, and the sum starts from dk[0] instead."""
    total = dk[0]
    for w, i in terms:
        total = total + w * dk[i]
    return total


def _dopri5_step(f, tn: float, yn, fn, h: float, tol: float, t_goal: float, stats: SegmentStats):
    """One accepted Dormand-Prince 5(4) step of y' = f(t, y) from (tn, yn).

    fn is f(tn, yn) (first same as last).  A trial step is accepted when
    both its embedded error estimate and its interpolant bump |d|/16 (the
    largest gap between the quartic dense output and the cubic Hermite one)
    are within tol * h, else retried shorter; StepFailure once h reaches
    h_min.  Every weighted sum runs over the stage slopes minus fn, so a
    constant slope is integrated exactly.  An end within rounding of t_goal
    snaps onto it.  Counts steps and rejections in stats.  Returns (t_new,
    y_new, f(t_new, y_new), d, the next trial h).
    """
    h_min = 1e-13 * max(1.0, abs(tn))
    while True:
        dk = [np.zeros_like(fn)]
        for c, row in _DP_ROWS:
            dk.append(f(tn + c * h, yn + h * (c * fn + _combine(row, dk))) - fn)
        y_new = yn + h * (fn + _combine(_DP_B_TERMS, dk))
        f_new = f(tn + h, y_new)
        dk.append(f_new - fn)
        d = h * _combine(_DP_D_TERMS, dk)
        errs = np.maximum(np.abs(h * _combine(_DP_E_TERMS, dk)), np.abs(d) / 16.0)
        err = float(np.max(errs))
        allowed = tol * h
        if err <= allowed:
            break
        if h <= h_min:
            raise StepFailure(
                f"cannot satisfy tol_step={tol:g} at t={tn!r}: h={h:.3e}, "
                f"err={err:.3e} > allowed={allowed:.3e}, "
                f"largest at interface k={int(np.argmax(errs)) + 1}"
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
        tol_event: float = 1e-10,
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
        if not (tol_step > 0.0 and tol_event > 0.0):
            raise ValueError("tolerances must be positive")
        checks = validate_initial(params, omega_start, profile_start, margin)
        self.params = params
        self.omega_start = omega_start
        self.profile_start = profile_start
        self.t_start = float(t_start)
        self.t_goal = float(t_end)
        self.tol_step = float(tol_step)
        self.tol_event = float(tol_event)
        self.margin = default_margin(params) if margin is None else float(margin)
        self.stats = SegmentStats()
        self.event: EventRecord | None = None

        n = len(omega_start.endpoints)
        self.labels = tuple(labels) if labels is not None else tuple(range(1, n + 1))
        if len(self.labels) != n:
            raise ValueError("one label per endpoint required")
        self._parity = np.array([(-1.0) ** k for k in range(1, n + 1)])
        x0 = np.asarray(omega_start.endpoints, dtype=float)
        if n:
            # the initial slopes are the endpoint velocities the validation read
            f0 = np.array([c.velocity for c in checks])
            self._signs = np.sign(f0)
            self._path = DensePath(self.t_start, x0, f0)
            self.finished = False
        else:
            self._signs = np.zeros(0)
            self._path = DensePath(self.t_start, np.zeros(0), np.zeros(0))
            self.finished = True
        self._h = min(math.sqrt(self.tol_step), 0.25 * (self.t_goal - self.t_start))
        self._degeneracy_flagged = False
        # A continuation's field is one fold over the whole history, and its
        # first trial step is its segment's last proposed step size.  The
        # field's kinks never move: the first profile's knots and endpoints
        # and every event position since (a surviving front's speed is
        # continuous through a surgery), so a front's speed is smooth except
        # where it crosses one.  A continuation's knots are these.
        if continued:
            prior = profile_start.segment
            self._chain = (*prior._chain, prior)
            self._h = prior._h
            self._kinks = np.asarray(profile_start.xs, dtype=float)
        else:
            self._chain = ()
            self._kinks = np.unique(np.concatenate([np.asarray(profile_start.xs, dtype=float), x0]))
        self._index_history()

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

    def _index_history(self) -> None:
        """Flatten the finished segments before this one, and this one's fixed
        data, into the arrays the fold reads: one column per (segment,
        interface), i.e. per segment start endpoint."""
        segs = (*self._chain, self)
        self._origin = segs[0].profile_start
        self._t_origin = segs[0].t_start
        self._col_x0 = np.concatenate([np.asarray(s.omega_start.endpoints, dtype=float) for s in segs])
        self._col_sign = np.concatenate([s._signs for s in segs])
        self._col_from = self._col_sign * self._col_x0
        self._col_t0 = np.concatenate([np.full(s.n_interfaces, s.t_start) for s in segs])
        # right after its start an interface that moves left lies below a
        # point on its start position, one that moves right above it; a point
        # counts an endpoint as below it when it exceeds this bound (x >= x0
        # is x > the float just below x0)
        self._col_below = np.where(self._col_sign < 0, np.nextafter(self._col_x0, -math.inf), self._col_x0)
        seg_cols = np.cumsum([0] + [s.n_interfaces for s in segs])
        # reduceat runs over the segments with columns (it would give an
        # empty block the next column); None when that is every segment
        filled = np.diff(seg_cols) > 0
        self._seg_first = seg_cols[:-1][filled]
        self._seg_filled = None if filled.all() else np.flatnonzero(filled)
        self._own_cols = slice(seg_cols[-2], None)
        # each segment path with columns and its column range: _arrivals
        # inverts all of a path's crossings in one call
        self._paths = [
            (s._path, a, b) for s, a, b in zip(segs, seg_cols[:-1].tolist(), seg_cols[1:].tolist()) if b > a
        ]
        # how far each column's motion has reached: the end of a finished
        # segment, the last accepted step of this one (kept by advance)
        self._swept_to = np.concatenate([s._signs * s._path.arrays()[1][-1] for s in segs])
        self._resets = np.asarray([s.t_start for s in segs[1:]], dtype=float)

    def _arrivals(self, xs: np.ndarray) -> np.ndarray | None:
        """Crossing times at xs of every interface column of the history, one
        row per column and one entry per point; inf where the interface never
        crossed the point after its segment began.  None when no interface
        swept any of the points.

        Only swept (point, column) pairs are inverted, with one invert_col
        call per segment path over all of its columns' pairs, listed column
        by column.
        """
        # an interface is monotone, so it can only have crossed the points its
        # motion swept; the rest stay unreached or behind its start.  One row
        # per column: a path's pairs are its block of rows, column by column.
        # ahead is freed before the inversions, whose temporaries set the
        # peak memory of a large read
        ahead = self._col_sign[:, None] * xs
        swept = (ahead > self._col_from[:, None]) & (ahead <= self._swept_to[:, None])
        del ahead
        if not np.count_nonzero(swept):
            return None
        T = np.full(swept.shape, math.inf)
        for path, a, b in self._paths:
            k = np.flatnonzero(swept[a:b])
            if k.size:
                cols, rows = np.divmod(k, xs.size)
                np.put(T, a * xs.size + k, path.invert_col(cols, xs[rows], self._col_sign[a + cols]))
        # crossings at or before a segment's start are part of its initial state
        T[T <= self._col_t0[:, None]] = math.inf
        return T

    def _start_phases(self, xs: np.ndarray) -> np.ndarray:
        """Membership of each point in each segment's excited set for
        t -> t_start+, one row per segment of the history.

        A point is inside when an odd number of its segment's endpoints lie
        below it.  An endpoint equal to the point counts as below it when its
        interface moves left, i.e. lies below the point for t > t_start: the
        point is then absorbed into the interior exactly when the interface
        moves away from the component it bounds.  This is the limit the exact
        flow composition needs for continuity of v.
        """
        return self._odd_per_segment(self._col_below[:, None] < xs)

    def _odd_per_segment(self, mask: np.ndarray) -> np.ndarray:
        """Whether each point (column) of a (columns, points) mask holds an
        odd number of True in each segment's block of rows."""
        if self._seg_filled is None:
            return np.logical_xor.reduceat(mask, self._seg_first, axis=0)
        odd = np.zeros((len(self._chain) + 1, mask.shape[1]), dtype=bool)
        if self._seg_first.size:
            odd[self._seg_filled] = np.logical_xor.reduceat(mask, self._seg_first, axis=0)
        return odd

    def _v_field(self, xs: np.ndarray, tq) -> np.ndarray:
        """v(xs, tq): the exact flows folded from the first segment's profile
        over each point's whole in/out history, whatever the segment.

        tq is one time for all points (a float) or one per point.  Every
        event of the history is a phase toggle: a crossing, or a segment
        start whose phase differs from the one the crossings before it carry
        (the points between two colliding fronts).  Pieces of equal phase
        across a segment start thus flow in one call, so the work follows a
        point's phase changes, not the number of segments.  Where no point
        has an event, the fold is its first slot alone: each point flows
        from the origin to tq in its start phase.
        """
        phases = self._start_phases(xs)
        T = self._arrivals(xs)
        if self._resets.size:
            carried = phases[:-1]
            if T is not None:
                carried = carried ^ self._odd_per_segment(np.isfinite(T))[:-1]
            resets = np.where(carried != phases[1:], self._resets[:, None], math.inf)
            T = resets if T is None else np.concatenate([T, resets])
        n_cross = 0
        if T is not None:
            T.sort(axis=0)
            n_cross = int(np.max(np.count_nonzero(np.isfinite(T), axis=0), initial=0))
        phase0 = phases[0]
        v = np.array(self._origin.eval(xs), dtype=float, ndmin=1)
        prev = self._t_origin
        # past the last finite event every point has flowed up to tq
        for slot in range(n_cross + 1):
            bend = tq if slot == n_cross else np.minimum(T[slot], tq)
            self._flow(v, phase0 if slot % 2 == 0 else ~phase0, bend - prev)
            prev = bend
        return v

    def _flow(self, v: np.ndarray, inside: np.ndarray, dt) -> None:
        """Flow each entry of v in place by dt (a float, or one per entry) in
        the phase inside marks; entries with dt <= 0 stay.

        The rest state v = 0 is a fixed point of the quiescent flow
        (flow_outside maps +0.0 to +0.0 exactly), so the outside entries are
        left as they are when every one of them is +0.0: the one float whose
        bits are all zero.
        """
        if isinstance(dt, float):
            if not dt > 0.0:
                return
            m_in, m_out = inside, ~inside
            dt_in = dt_out = dt
        else:
            moving = dt > 0.0
            m_in, m_out = inside & moving, ~inside & moving
            dt_in, dt_out = dt[m_in], dt[m_out]
        for mask, flow, t, at_rest in ((m_in, flow_inside, dt_in, False), (m_out, flow_outside, dt_out, True)):
            n = np.count_nonzero(mask)
            if not n:
                continue
            vm = v if n == v.size else v[mask]
            if at_rest and not vm.view(np.int64).any():
                continue
            if n == v.size:
                v[:] = flow(self.params, v, t)
            else:
                v[mask] = flow(self.params, vm, t)

    def evaluate_v(self, x, t) -> np.ndarray | float:
        """Recovery field v(x, t) for any t from the start of the history this
        segment continues to its own end (x, t broadcastable).

        Raises ValueError for a time outside that span or a non-finite x.
        """
        self._check_time(t, self._t_origin)
        xs, ts = np.broadcast_arrays(
            np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        )
        # the quiescent flow maps nan to the rest state, so nan would read 0
        if not np.isfinite(xs).all():
            raise ValueError("position must be finite")
        shape = xs.shape
        out = self._v_field(xs.ravel().astype(float), ts.ravel().astype(float))
        out = out.reshape(shape)
        if np.ndim(x) == 0 and np.ndim(t) == 0:
            return float(out)
        return out

    # -- integration -------------------------------------------------------

    def _rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        v = self._v_field(x, t)
        return self._parity * (self.params.a - self.params.b * v)

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
        self._path.append(t_new, x_new, f_new, d)
        if x_new.size > 1:
            self.stats.min_gap = min(self.stats.min_gap, float(np.min(x_new[1:] - x_new[:-1])))
        speed = float(np.min(np.abs(f_new)))
        self.stats.min_speed = min(self.stats.min_speed, speed)
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
        self._swept_to[self._own_cols] = self._signs * self._path.arrays()[1][-1]
        return True

    def _next_kink(self, xn: np.ndarray, fn: np.ndarray) -> np.ndarray:
        """Per front, the nearest known kink ahead of it in its direction of
        motion and farther than it moves in 16*tol_event; nan where none."""
        reach = xn + fn * (16.0 * self.tol_event)
        ahead = self._signs > 0
        i = np.where(
            ahead,
            np.searchsorted(self._kinks, reach, side="right"),
            np.searchsorted(self._kinks, reach, side="left") - 1,
        )
        found = (i >= 0) & (i < self._kinks.size)
        return np.where(found, self._kinks[np.clip(i, 0, self._kinks.size - 1)], math.nan)

    def _step_cap(self, xn: np.ndarray, fn: np.ndarray, kink: np.ndarray) -> float:
        """Linear-predicted time to the crossing of each front's next kink
        (from _next_kink), or to the next gap closure plus 16*tol_event so
        that the closure falls inside the step.

        A step that reaches a kink earlier than predicted is taken again
        (see _kink_crossing); one that falls short leaves the kink so close
        ahead that the next prediction is nearly exact.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            to_kinks = (kink - xn) / fn
            gap = (xn[1:] - xn[:-1]) / (fn[:-1] - fn[1:])
        to_kink = float(np.min(to_kinks[to_kinks > 0.0], initial=math.inf))
        to_gap = float(np.min(gap[gap > 0.0], initial=math.inf))
        return min(to_kink, to_gap + 16.0 * self.tol_event)

    def _kink_crossing(self, tn, xn, fn, kink, t_new, x_new, f_new, d) -> float | None:
        """Earliest time at which the trial step (tn, t_new) carries a front
        across its next kink (_next_kink at the step's start), located on the
        step's quartic; None unless it lies more than 16*tol_event inside the
        step."""
        crossed = self._signs * (x_new - kink) > 0.0
        if not np.any(crossed):
            return None
        h = np.full(np.count_nonzero(crossed), t_new - tn)
        t_cross = _invert_quartic(
            np.full(h.shape, tn), h, xn[crossed], fn[crossed], x_new[crossed],
            f_new[crossed], d[crossed], kink[crossed], self._signs[crossed],
        )
        t_kink = float(np.min(t_cross))
        slack = 16.0 * self.tol_event
        return t_kink if tn + slack < t_kink < t_new - slack else None

    def _scan_event(self) -> tuple[float, int] | None:
        """Earliest gap closure inside the last accepted step, if any, as
        (time, index of the gap's left interface).

        Each gap that can reach 0 is sampled for its first sign change, and
        one _invert_quartic call locates every such closure by Newton's
        method inside its bracket.  A later pair wins only when it closes
        more than tol_event earlier, so closures within tol_event of each
        other go to the leftmost pair."""
        n = self.n_interfaces
        if n < 2 or len(self._path) < 2:
            return None
        ts, Y, F, D = self._path.arrays()
        t0 = ts[-2]
        h = ts[-1] - t0
        # gap i's quartic, from the differences of adjacent columns, and its
        # monomial coefficients c1..c4 in theta (c0 is g0)
        g0, s0, g1, s1, gd = (a[1:] - a[:-1] for a in (Y[-2], F[-2], Y[-1], F[-1], D[-1]))
        c = np.array([
            h * s0,
            -3 * g0 - 2 * h * s0 + 3 * g1 - h * s1 + gd,
            2 * g0 + h * s0 - 2 * g1 + h * s1 - 2 * gd,
            gd,
        ])
        # |gap'| <= sum_j j |c_j| on [0, 1], so between samples 1/12 apart a
        # gap dips at most a 24th of that below the lower one
        abs_c = np.abs(c)
        dip = _POWERS @ abs_c / 24.0
        # each gap stays above g0 - sum_j |c_j| on [0, 1]; where that clears
        # the dip by far more than the samples' rounding, no sample is near
        spread = abs_c.sum(axis=0)
        if np.all(g0 - spread > dip + 1e-12 * (g0 + spread)):
            return None
        near = np.flatnonzero(_quartic_at(_SAMPLE_WEIGHTS, h, g0, s0, g1, s1, gd).min(axis=0) <= dip)
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
        # ties within tol_event resolve to the leftmost pair, i.e. first i
        best = 0
        for j in range(1, i.size):
            if t_a[j] < t_a[best] - self.tol_event:
                best = j
        return float(t_a[best]), int(i[best])

    def _finalize_event(self, t_a: float, i: int) -> None:
        t_prev = self._path.arrays()[0][-2]
        if t_a <= t_prev:
            t_a = np.nextafter(t_prev, math.inf)
        self._path.truncate_last(t_a)
        self.event = EventRecord.collision(float(t_a), i, self.labels, self._path.last()[1])
        self.finished = True


# steps allowed to one segment or one integrate_adaptive call
MAX_STEPS = 500_000


def run_segment(
    params: Parameters,
    omega_start: IntervalSet,
    profile_start: Profile | _ContinuedField,
    t_start: float,
    t_end: float,
    *,
    tol_step: float = 1e-8,
    tol_event: float = 1e-10,
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
        tol_event=tol_event,
        margin=margin,
        labels=labels,
    )
    while not seg.finished:
        if seg.stats.steps >= MAX_STEPS:
            raise StepFailure(f"step budget {MAX_STEPS} exhausted at t={seg.t_end!r}")
        seg.advance()
    return seg, seg.event


def integrate_adaptive(
    f,
    t0: float,
    y0,
    t_end: float,
    *,
    tol: float = 1e-9,
) -> DensePath:
    """Generic adaptive 5(4) integration of y' = f(t, y) with dense output."""
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    path = DensePath(t0, y, f(t0, y))
    stats = SegmentStats()
    h = min(math.sqrt(tol), 0.25 * (t_end - t0))
    while path.t_end < t_end:
        if stats.steps >= MAX_STEPS:
            raise StepFailure(f"step budget {MAX_STEPS} exhausted at t={path.t_end!r}")
        tn, yn, fn = path.last()
        h = min(h, t_end - tn)
        t_new, y_new, f_new, d, h = _dopri5_step(f, tn, yn, fn, h, tol, t_end, stats)
        path.append(t_new, y_new, f_new, d)
    return path
