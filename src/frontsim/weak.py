"""Weak-solution driver: continuation of the evolution through annihilations.

A weak solution is a chain of classical segments joined by surgery: when two
adjacent interfaces collide, the colliding pair is removed (a merge absorbs
the touching point of two components, a vanish deletes an empty component),
and the next classical segment continues from the surgered data, its field
the exact field at the collision time.  The module also provides numerical
checks of the integral identities that characterize weak solutions, the
structural no-nucleation test, and the two-continuation demo of the
degenerate-start ill-posedness.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .kinetics import Parameters, Phase, flow_inside, flow_outside, front_speed, reaction_rate
# validate_initial is not called here; tracing tools (perfbench) patch it
# under this module's name as well as classical's
from .state import H2Violation, IntervalSet, Profile, validate_initial  # noqa: F401
from .classical import (
    ClassicalSegment,
    DensePath,
    EventRecord,
    _ContinuedField,
    integrate_adaptive,
    run_segment,
)

__all__ = [
    "SurgeryH2Failure",
    "WeakSolution",
    "annihilation_surgery",
    "glue",
    "run_weak",
    "check_no_nucleation",
    "SpaceTimePolynomial",
    "tensor_test_functions",
    "weak_residual",
    "interface_speed_integral",
    "IllPosedBranch",
    "ill_posedness_demo",
    "events_as_json",
]


class SurgeryH2Failure(RuntimeError):
    """Post-surgery data failed re-validation; flags accumulated numerical error."""


@dataclass
class WeakSolution:
    """Ordered classical segments with the annihilation events joining them.

    Each segment after the first continues the one before it (see glue), so
    the junctions are continuous by construction.  Readers take positions
    from one table (positions) and the field from one evaluate_v call per
    batch, which is one fold of the last segment over the whole history; a
    time on an event belongs to the segment after it.
    """

    params: Parameters
    segments: list[ClassicalSegment] = dc_field(default_factory=list)
    events: list[EventRecord] = dc_field(default_factory=list)

    @property
    def t_start(self) -> float:
        return self.segments[0].t_start if self.segments else 0.0

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_end if self.segments else 0.0

    def segment_index(self, t) -> np.ndarray:
        """Index of the segment each time belongs to (vectorized over t)."""
        if not self.segments:
            raise ValueError("empty weak solution")
        starts = np.asarray([seg.t_start for seg in self.segments])
        return np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(starts) - 1)

    def evaluate_v(self, x, t) -> np.ndarray | float:
        if not self.segments:
            raise ValueError("empty weak solution")
        return self.segments[-1].evaluate_v(x, t)

    def positions(self, t) -> np.ndarray:
        """Interface positions at the time(s) t: one row per time, one column
        per label of the first segment, nan where that interface is not alive.

        A scalar t gives one row.  Raises for a time outside the solution.
        """
        times = np.atleast_1d(np.asarray(t, dtype=float))
        owner = self.segment_index(times)
        column = {lab: j for j, lab in enumerate(self.segments[0].labels)}
        table = np.full((times.size, len(column)), math.nan)
        for i, seg in enumerate(self.segments):
            rows = np.flatnonzero(owner == i)
            if rows.size:
                cols = [column[lab] for lab in seg.labels]
                table[np.ix_(rows, cols)] = seg.positions(times[rows])
        return table[0] if np.ndim(t) == 0 else table


def events_as_json(w: WeakSolution) -> str:
    records = [
        {
            "time": ev.time,
            "kind": ev.kind.value,
            "indices": list(ev.indices),
            "labels": list(ev.labels),
            "position": ev.position,
            "components_before": ev.components_before,
            "components_after": ev.components_after,
        }
        for ev in w.events
    ]
    return json.dumps(records, sort_keys=True, indent=2) + "\n"


# --- surgery ---------------------------------------------------------------

def annihilation_surgery(
    seg: ClassicalSegment, ev: EventRecord
) -> tuple[IntervalSet, _ContinuedField, list[EventRecord], tuple[int, ...]]:
    """State just after the annihilation: collided pairs removed, field continued.

    Returns (omega, profile, extra_events, labels), labels those of the
    surviving interfaces.  extra_events covers the measure-zero case of
    further gaps closing within event tolerance of the primary collision;
    they are collapsed left to right at the same time.  The profile's knots
    are the segment's kinks plus the event positions.  Nothing is evaluated
    here: the segment built from this state validates its endpoints, and
    run_weak reports a failure there as SurgeryH2Failure.
    """
    pos = np.atleast_1d(seg.positions(ev.time)).astype(float)
    keep = [j for j in range(pos.size) if j + 1 not in ev.indices]
    events = [ev]
    zero_gap = max(16.0 * seg.tol_event, 1e-12 * max(1.0, float(np.max(np.abs(pos))) if pos.size else 1.0))
    while len(keep) > 1:
        gaps = np.diff(pos[keep])
        if np.all(gaps > zero_gap):
            break
        i = int(np.argmax(gaps <= zero_gap))  # leftmost offending pair
        events.append(EventRecord.collision(ev.time, i, [seg.labels[j] for j in keep], pos[keep]))
        del keep[i : i + 2]
    knots = np.unique(np.concatenate([seg._kinks, [e.position for e in events]]))
    labels = tuple(seg.labels[j] for j in keep)
    return IntervalSet(tuple(pos[keep])), _ContinuedField(seg, knots), events[1:], labels


def glue(w: WeakSolution, seg: ClassicalSegment) -> WeakSolution:
    """Append seg to w in place and return w.

    Raises ValueError unless seg continues w's last segment (its profile is
    that segment's _ContinuedField, which ClassicalSegment has started at
    that segment's end time), or w is empty and seg is a fresh start.
    """
    prior = seg.profile_start.segment if isinstance(seg.profile_start, _ContinuedField) else None
    if prior is not (w.segments[-1] if w.segments else None):
        raise ValueError("a segment must continue the solution's last segment, or start an empty one")
    w.segments.append(seg)
    return w


def run_weak(
    params: Parameters,
    omega0: IntervalSet,
    v0: Profile,
    t_end: float,
    *,
    tol_step: float = 1e-8,
    tol_event: float = 1e-10,
    margin: float | None = None,
) -> WeakSolution:
    """Evolve (omega0, v0) to t_end, continuing through every annihilation.

    End-time rule: a collision at or after t_end - 1e-13*max(1, |t_end|) is
    not an event of this run: the last segment ends at t_end with that pair
    still alive, so every recorded event has a segment after it.

    Each segment after an annihilation continues the one before it, from
    annihilation_surgery's state and surviving labels.

    Each segment validates its start (validate_initial, one evaluation of
    its field at all endpoints); after a surgery a degenerate start raises
    SurgeryH2Failure from the H2Violation.
    """
    w = WeakSolution(params)
    omega, prof, labels = omega0, v0, None
    t = 0.0
    max_events = 2 * omega0.m
    while True:
        try:
            seg, ev = run_segment(
                params,
                omega,
                prof,
                t,
                t_end,
                tol_step=tol_step,
                tol_event=tol_event,
                margin=margin,
                labels=labels,
            )
        except H2Violation as exc:
            if not w.segments:
                raise
            raise SurgeryH2Failure(
                f"post-surgery data at t={t!r} fails the endpoint non-degeneracy check; "
                "this indicates accumulated numerical error"
            ) from exc
        w = glue(w, seg)
        if ev is None:
            break
        omega, prof, extras, labels = annihilation_surgery(seg, ev)
        w.events.extend([ev, *extras])
        if len(w.events) > max_events:
            raise RuntimeError("more annihilations than interfaces; invariant violated")
        t = ev.time
    return w


def check_no_nucleation(w: WeakSolution) -> bool:
    """Structural no-nucleation test: every interface is traceable to the
    initial time or ends at a recorded event, and the component count never
    increases."""
    if not w.segments:
        return True
    counts = [seg.n_interfaces for seg in w.segments]
    if any(c % 2 != 0 for c in counts):
        return False
    # count must be non-increasing and drop by exactly one pair per event
    drops = 0
    for a, b in zip(counts, counts[1:]):
        if b > a:
            return False
        if (a - b) % 2 != 0:
            return False
        drops += (a - b) // 2
    if drops != len(w.events):
        return False
    # labels must persist (no fresh interfaces) and survivor positions must connect
    for prev, nxt in zip(w.segments, w.segments[1:]):
        if prev.t_end != nxt.t_start:
            return False
        if not set(nxt.labels) <= set(prev.labels):
            return False
        prev_pos = dict(zip(prev.labels, np.atleast_1d(prev.positions(prev.t_end))))
        for lab, x in zip(nxt.labels, nxt.omega_start.endpoints):
            if prev_pos[lab] != x:
                return False
    # within a segment the ordering must hold at a few sample times
    for seg in w.segments:
        if seg.n_interfaces < 2:
            continue
        for t in np.linspace(seg.t_start, seg.t_end, 5):
            pos = np.atleast_1d(seg.positions(float(t)))
            # at an annihilation knot the colliding gap sits within rounding of 0
            if np.any(np.diff(pos) < -max(1e-8, 100.0 * seg.tol_event)):
                return False
    return True


# --- weak-form residuals ----------------------------------------------------

class SpaceTimePolynomial:
    """Tensor polynomial in window-normalized coordinates, with exact d/dt."""

    def __init__(self, coeffs, window: tuple[float, float, float, float]):
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        self.window = tuple(float(v) for v in window)

    def _normalized(self, x, t):
        x1, x2, t1, t2 = self.window
        xh = (np.asarray(x, float) - x1) / (x2 - x1)
        th = (np.asarray(t, float) - t1) / (t2 - t1)
        return np.broadcast_arrays(xh, th)

    def value(self, x, t):
        xh, th = self._normalized(x, t)
        return np.polynomial.polynomial.polyval2d(xh, th, self.coeffs)

    def dt(self, x, t):
        x1, x2, t1, t2 = self.window
        c = self.coeffs
        if c.shape[1] == 1:
            return np.zeros(np.broadcast(np.asarray(x), np.asarray(t)).shape)
        ct = c[:, 1:] * np.arange(1, c.shape[1]) / (t2 - t1)
        xh, th = self._normalized(x, t)
        return np.polynomial.polynomial.polyval2d(xh, th, ct)


def tensor_test_functions(window, degree: int = 3) -> list[SpaceTimePolynomial]:
    """The constant plus all tensor monomials x^i t^j up to the given degree."""
    funcs = [SpaceTimePolynomial([[1.0]], window)]
    for i in range(degree + 1):
        for j in range(degree + 1):
            if i == 0 and j == 0:
                continue
            c = np.zeros((i + 1, j + 1))
            c[i, j] = 1.0
            funcs.append(SpaceTimePolynomial(c, window))
    return funcs


def _time_breakpoints(
    w: WeakSolution, t1: float, t2: float, x1: float, x2: float, cuts: np.ndarray
) -> np.ndarray:
    """Sorted unique times in [t1, t2] at which a segment starts or ends or
    a front reaches a window edge or a cut, t1 and t2 included.

    Each segment inverts all of its fronts' arrivals at the markers in one
    invert_col call, a column and a sign per query."""
    markers = np.concatenate([np.asarray([x1, x2]), cuts])
    pts = [np.asarray([t1, t2])]
    for seg in w.segments:
        pts.append(np.asarray([seg.t_start, seg.t_end]))
        n = seg.n_interfaces
        if n:
            cols = np.repeat(np.arange(n), markers.size)
            pts.append(seg._path.invert_col(cols, np.tile(markers, n), seg._signs[cols]))
    pts = np.concatenate(pts)
    return np.unique(pts[(pts >= t1) & (pts <= t2)])


# 6-point Gauss-Legendre on [-1, 1], exact to degree 11 (Davis & Rabinowitz,
# Methods of Numerical Integration, ch. 2), the one rule of both quadratures
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)


def _gauss_cells(lo, hi, counts) -> tuple[np.ndarray, np.ndarray]:
    """6-point Gauss-Legendre nodes and weights on counts[j] uniform cells of
    each piece (lo[j], hi[j]), all pieces in one array.

    The entries run cell by cell, pieces left to right, 6 per cell: a cell
    (left, left + 2 half) gets left + half + half * _GL_NODES and
    half * _GL_WEIGHTS.  The cell edges are np.linspace's (k * step + lo,
    and hi exactly), so a piece gets the same values here as on its own.
    """
    lo, hi = np.atleast_1d(np.asarray(lo, dtype=float)), np.atleast_1d(np.asarray(hi, dtype=float))
    counts = np.atleast_1d(counts)
    piece = np.repeat(np.arange(counts.size), counts)
    k = np.arange(piece.size) - (np.cumsum(counts) - counts)[piece]
    step = ((hi - lo) / counts)[piece]
    left = k * step + lo[piece]
    right = np.where(k + 1 == counts[piece], hi[piece], (k + 1) * step + lo[piece])
    half = 0.5 * (right - left)[:, None]
    return (left[:, None] + half + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def _window_nodes(pos, taus, tws, x1: float, x2: float, cuts: np.ndarray, nx: int):
    """Gauss nodes of (x1, x2) at each time taus[r], weighted by tws[r].

    Row r of pos holds the interface positions at taus[r]; they, clipped to
    the window, and the cuts inside it partition (x1, x2).  nan entries (the
    interfaces not alive at that time) are ignored.  Pieces of length
    <= 1e-13 are dropped; a piece is inside the excited set when an odd
    number of the row's positions lie below its midpoint.  Each piece gets
    its share of nx cells, at least 1.  Returns the nodes' x, taus entry,
    weight and inside flag, rows in order, pieces left to right; taus may be
    any per-row label, such as the row index.
    """
    n_rows = pos.shape[0]
    inner = np.tile(cuts[(cuts > x1) & (cuts < x2)], (n_rows, 1))
    ends = np.full((n_rows, 1), x1), np.full((n_rows, 1), x2)
    edges = np.sort(np.hstack([ends[0], np.clip(pos, x1, x2), inner, ends[1]]), axis=1)
    lo, hi = edges[:, :-1], edges[:, 1:]
    keep = hi - lo > 1e-13
    row = np.nonzero(keep)[0]
    lo, hi = lo[keep], hi[keep]
    inside = np.count_nonzero(pos[row] < (0.5 * (lo + hi))[:, None], axis=1) % 2 == 1
    counts = np.maximum(1, np.round(nx * (hi - lo) / (x2 - x1)).astype(int))
    xs, ws = _gauss_cells(lo, hi, counts)
    node = np.repeat(np.arange(counts.size), _GL_NODES.size * counts)
    return xs, taus[row[node]], tws[row[node]] * ws, inside[node]


# the cells a residual window gets in t and in x, shared out over its pieces
_NT = 32
_NX = 32


def weak_residual(
    w: WeakSolution, window: tuple[float, float, float, float], phi, psi
) -> tuple[float, float]:
    """Absolute residuals of the two weak-form identities on a window.

    The first identity balances the change of the excited measure against the
    time integral of the test function inside the excited set plus the
    interface line integral of W(v); on trajectory graphs the surface measure
    |n_1| dsigma reduces to dt.  The second is the weak (in time) form of the
    field equation v_t = g(1_Omega, v).  phi and psi must expose value(x, t)
    and dt(x, t); see SpaceTimePolynomial.
    """
    x1, x2, t1, t2 = (float(v) for v in window)
    if not (x1 < x2 and t1 < t2):
        raise ValueError("window must satisfy x1 < x2 and t1 < t2")
    if t1 < w.t_start - 1e-12 or t2 > w.t_end + 1e-12:
        raise ValueError("window exceeds the solution horizon")
    # the last segment continues the whole history, so it holds every kink
    cuts = w.segments[-1]._kinks
    brk = _time_breakpoints(w, t1, t2, x1, x2, cuts)
    counts = np.maximum(2, np.round(_NT * np.diff(brk) / (t2 - t1)).astype(int))
    taus, tws = _gauss_cells(brk[:-1], brk[1:], counts)

    # one node set for the window: rows 0 and 1 are its edges t1 and t2, of
    # weight -1 and +1 so that their sums are changes from t1 to t2; the
    # Gauss rows of the breakpoint intervals follow
    times = np.concatenate([[t1, t2], taus])
    pos = w.positions(times)
    xs, row, wq, inside = _window_nodes(
        pos, np.arange(times.size), np.concatenate([[-1.0, 1.0], tws]), x1, x2, cuts, _NX
    )
    ts = times[row]
    # the fronts inside the window on the Gauss rows, for c_term
    r, k = np.nonzero((pos[2:] > x1) & (pos[2:] < x2))
    fx, ft = pos[2:][r, k], taus[r]
    v_all = w.evaluate_v(np.concatenate([xs, fx]), np.concatenate([ts, ft]))
    v, wv = v_all[: xs.size], front_speed(w.params, v_all[xs.size :])

    # the edges give phi over the excited set and v*psi over the window; the
    # Gauss rows' inside nodes give b_term, all of them e_term
    edge = row < 2
    at_edge, within = inside & edge, inside & ~edge
    d_area = np.sum(phi.value(xs[at_edge], ts[at_edge]) * wq[at_edge])
    pv = psi.value(xs, ts)
    d_field = np.sum((v * pv * wq)[edge])
    b_term = np.sum(phi.dt(xs[within], ts[within]) * wq[within])
    c_term = np.sum(tws[r] * wv * phi.value(fx, ft))
    g = np.where(
        inside, reaction_rate(w.params, Phase.INSIDE, v), reaction_rate(w.params, Phase.OUTSIDE, v)
    )
    e_term = np.sum(((v * psi.dt(xs, ts) + g * pv) * wq)[~edge])
    r1 = abs(d_area - b_term - c_term)
    r2 = abs(d_field - e_term)
    return float(r1), float(r2)


def interface_speed_integral(w: WeakSolution, label: int, t1: float, t2: float) -> float:
    """Quadrature of W(v(x_k(t), t)) dt along the labeled interface over
    [t1, t2]: one _gauss_cells cell per knot interval, summed segment by
    segment, with one field call for the nodes of all segments.

    Raises ValueError unless t1 <= t2, if [t1, t2] leaves the solution's time
    span, or if label is not an interface of the first segment.
    """
    if not t1 <= t2:  # written so that nan fails it too
        raise ValueError("the time window must satisfy t1 <= t2")
    if t1 < w.t_start - 1e-12 or t2 > w.t_end + 1e-12:
        raise ValueError("window exceeds the solution horizon")
    if not w.segments or label not in w.segments[0].labels:
        raise ValueError(f"no interface is labelled {label!r}")
    weights, xs, ts = [], [], []
    for seg in w.segments:
        lo = max(t1, seg.t_start)
        hi = min(t2, seg.t_end)
        if label not in seg.labels or hi <= lo:
            continue
        knots = seg._path.arrays()[0]
        cuts = np.unique(np.concatenate([[lo, hi], knots[(knots > lo) & (knots < hi)]]))
        nodes, ws = _gauss_cells(cuts[:-1], cuts[1:], np.ones(cuts.size - 1, dtype=int))
        weights.append(ws)
        xs.append(seg._path.eval(nodes)[:, seg.labels.index(label)])
        ts.append(nodes)
    if not weights:
        return 0.0
    speeds = front_speed(w.params, w.evaluate_v(np.concatenate(xs), np.concatenate(ts)))
    parts = np.split(speeds, np.cumsum([ws.size for ws in weights])[:-1])
    return sum(float(np.sum(ws * part)) for ws, part in zip(weights, parts))


# --- ill-posedness demo -------------------------------------------------------

@dataclass(frozen=True)
class IllPosedBranch:
    """One continuation from the degenerate half-line start.

    The excited set is (s(t), inf); the field is taken as the inside flow of
    the initial profile to the right of s(t) and the outside flow to its left.
    The 'front' branch drives s with the inside reading of v at the interface,
    the 'back' branch with the outside reading; both start with zero speed.
    """

    role: str
    params: Parameters
    path: DensePath

    def position(self, t) -> np.ndarray | float:
        out = self.path.eval(t)[..., 0]
        return float(out) if np.ndim(t) == 0 else out

    def initial_profile(self, x):
        return np.maximum(self.params.v_star - np.arctan(np.asarray(x, dtype=float)), 0.0)

    def v(self, x, t):
        xs = np.asarray(x, dtype=float)
        ts = np.asarray(t, dtype=float)
        v0 = self.initial_profile(xs)
        s = self.path.eval(ts)[..., 0]
        inside = xs > s
        out = np.where(
            inside,
            flow_inside(self.params, v0, np.maximum(ts, 0.0)),
            flow_outside(self.params, v0, np.maximum(ts, 0.0)),
        )
        return float(out) if np.ndim(x) == 0 and np.ndim(t) == 0 else out


# the step tolerance of both ill-posedness branches
_ILLPOSED_TOL = 1e-9


def ill_posedness_demo(params: Parameters, horizon: float) -> tuple[IllPosedBranch, IllPosedBranch]:
    """Two distinct continuations from Omega(0) = (0, inf), v0 = a/b - arctan x.

    The start violates the endpoint non-degeneracy condition (W(v0(0)) = 0),
    and the interface may consistently be driven either by the inside flow of
    v0 (it then recedes) or by the outside flow (it then advances), yielding
    two solutions from the same data.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")

    def v0_at(s: float) -> float:
        return max(params.v_star - math.atan(s), 0.0)

    def rhs_front(t, y):
        v = flow_inside(params, v0_at(float(y[0])), max(t, 0.0))
        return np.array([params.a - params.b * v])

    def rhs_back(t, y):
        v = flow_outside(params, v0_at(float(y[0])), max(t, 0.0))
        return np.array([params.a - params.b * v])

    front = integrate_adaptive(rhs_front, 0.0, [0.0], horizon, tol=_ILLPOSED_TOL)
    back = integrate_adaptive(rhs_back, 0.0, [0.0], horizon, tol=_ILLPOSED_TOL)
    return (
        IllPosedBranch("front", params, front),
        IllPosedBranch("back", params, back),
    )
