"""Weak-solution driver: continuation of the evolution through annihilations.

A weak solution is a chain of classical segments joined by surgery: when two
adjacent interfaces collide, the colliding pair is removed (a merge absorbs
the touching point of two components, a vanish deletes an empty component),
and the next classical segment continues from the surgered data, its field
the exact field at the collision time.  The module also provides numerical
checks of the integral identities that characterize weak solutions, the
structural no-nucleation test, and the ill-posedness demo: two run_weak runs
from data just either side of a start with W = 0 at an endpoint, whose
solutions stay apart as the data meet.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .kinetics import Parameters, front_speed, reaction_rate
# validate_initial is not called here; tracing tools (perfbench) patch it
# under this module's name as well as classical's
from .state import H2Violation, IntervalSet, Profile, default_margin, validate_initial  # noqa: F401
from .classical import (
    TOL_EVENT,
    ClassicalSegment,
    EventRecord,
    _ContinuedField,
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
        """v(x, t) for x and t broadcastable, through the last segment's fold
        (ClassicalSegment.evaluate_v): x-only work runs once per point of x;
        the flows run on the broadcast shape."""
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
    return json.dumps([asdict(ev) for ev in w.events], sort_keys=True, indent=2) + "\n"


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
    zero_gap = max(16.0 * TOL_EVENT, 1e-12 * float(np.max(np.abs(pos), initial=1.0)))
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
            if np.any(np.diff(pos) < -1e-8):
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
    """Sorted unique times in [t1, t2]: t1, t2, the segment starts, the end
    and the times a front reaches a window edge or a cut, which the last
    segment's fold (ClassicalSegment._arrivals) inverts once per swept pair."""
    T = w.segments[-1]._arrivals(np.concatenate([[x1, x2], cuts]))
    crossings = np.empty(0) if T is None else T[np.isfinite(T)]
    pts = np.concatenate([[seg.t_start for seg in w.segments], [w.t_end, t1, t2], crossings])
    return np.unique(pts[(pts >= t1) & (pts <= t2)])


def _kronrod_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 13-point Gauss-Kronrod extension of 6-point Gauss-Legendre on
    [-1, 1]: (nodes, Kronrod weights, Gauss weights).

    The nodes ascend; the odd places hold leggauss(6)'s nodes, whose Gauss
    weights are leggauss(6)'s, bit for bit, and 0 elsewhere.  The 7 new
    nodes are the roots of the Stieltjes polynomial E7 = P7 + c5 P5 + c3 P3
    + c1 P1 (odd, as 6 is even), with c fixed by int P6 E7 x^k = 0 for k =
    1, 3, 5 (the even k hold by parity).  The Kronrod weights solve the
    moment equations in the Legendre basis, sum_i w_i P_k(x_i) = 2 [k = 0]
    for k <= 12, which is well conditioned where a monomial Vandermonde is
    not.  The rule is exact to degree 19 (Laurie, "Calculation of
    Gauss-Kronrod quadrature rules", Math. Comp. 66, 1997).
    """
    leg = np.polynomial.legendre
    gauss_x, gauss_w = leg.leggauss(6)
    basis = np.eye(13)
    # 12 points integrate P6 P_j x^k (degree <= 18) exactly
    qx, qw = leg.leggauss(12)
    p6 = leg.legval(qx, basis[6])
    moment = lambda j, k: np.sum(qw * p6 * leg.legval(qx, basis[j]) * qx**k)
    c = np.zeros(8)
    c[7] = 1.0
    c[[1, 3, 5]] = np.linalg.solve(
        [[moment(j, k) for j in (1, 3, 5)] for k in (1, 3, 5)], [-moment(7, k) for k in (1, 3, 5)]
    )
    roots = np.sort(leg.legroots(c).real)
    nodes = np.empty(13)
    nodes[1::2] = gauss_x
    nodes[0::2] = 0.5 * (roots - roots[::-1])  # odd symmetry exactly, 0 in the middle
    kronrod = np.linalg.solve(leg.legvander(nodes, 12).T, 2.0 * basis[0])
    gauss = np.zeros(13)
    gauss[1::2] = gauss_w
    return nodes, 0.5 * (kronrod + kronrod[::-1]), gauss


# the one rule of both quadratures: interface_speed_integral takes its Gauss
# subset, weak_residual the pair, whose difference estimates a cell's error
_NODES, _KRONROD, _GAUSS = _kronrod_rule()


def _cells(lo, hi, nodes: np.ndarray = _NODES) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of each cell (lo[j], hi[j]), one row per cell, and each
    cell's half-length: a cell gets lo + half + half * nodes."""
    half = 0.5 * (hi - lo)
    return (lo + half)[:, None] + half[:, None] * nodes, half


def _pieces(pos, x1: float, x2: float, cuts: np.ndarray):
    """The pieces of (x1, x2) at each row of pos.

    Row r of pos holds the interface positions at one time; they, clipped
    to the window, and the cuts inside it partition (x1, x2).  nan entries
    (the interfaces not alive at that time) are ignored.  Pieces of length
    <= 1e-13 are dropped; a piece is inside the excited set when an odd
    number of the row's positions lie below its midpoint.  Returns each
    piece's row, lo, hi and inside flag, rows in order, pieces left to right.
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
    return row, lo, hi, inside


# the absolute error weak_residual allows each identity on a window; a
# cell's share of it is the share of the window its length spans
_TOL = 1e-12
# the floor of a cell's allowance: this many ulps of the integral of |f|,
# below which an error estimate is rounding, so that the refinement ends
_ROUNDING = 50.0 * np.finfo(float).eps
# a cell that fails after this many splits raises
_MAX_DEPTH = 30


def _estimate(f: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Kronrod sum, error estimate, integral of |f|) of each cell, for f
    of shape (..., cells, 13) sampled at the cells' nodes.

    The estimate is QUADPACK's (Piessens et al., 1983, qk15): the spread
    of f about its mean times min(1, (200 |K - G| / spread)^1.5), which
    credits the Kronrod sum with the accuracy it has over the Gauss sum.
    """
    k = half * (f @ _KRONROD)
    err = np.abs(k - half * (f @ _GAUSS))
    spread = half * (np.abs(f - (k / (2.0 * half))[..., None]) @ _KRONROD)
    shrunk = spread * np.minimum(1.0, (200.0 * err / np.where(spread > 0.0, spread, 1.0)) ** 1.5)
    return k, np.where(spread > 0.0, shrunk, err), half * (np.abs(f) @ _KRONROD)


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

    The integrals are adaptive Gauss(6)/Kronrod(13) quadratures to _TOL per
    identity.  Rows are the window edges t1 and t2 (the changes of the
    excited measure and of v*psi) and the 13 Kronrod times of each time
    cell; a row's integrand in x is cut into pieces at the fronts and the
    field's kinks, each piece starting as one cell.  A time cell starts as
    each interval between breakpoints (segment ends and the times fronts
    cross a window edge or a kink, which the fold's arrivals give: see
    _time_breakpoints); its integrand is, per row, the x integral of phi_t
    inside plus the fronts' W(v)*phi, and of v*psi_t + g*psi.  A cell whose
    estimate (_estimate) exceeds its share of _TOL splits: in x into 2, 4,
    8 or 16 equal cells by the estimate's ratio to the share, in time into
    halves.  A time cell is judged once, when its rows' x integrals are
    final.  Each round of refinement makes one field call.  A cell that
    fails after _MAX_DEPTH splits raises RuntimeError.
    """
    x1, x2, t1, t2 = (float(v) for v in window)
    if not (x1 < x2 and t1 < t2):
        raise ValueError("window must satisfy x1 < x2 and t1 < t2")
    if t1 < w.t_start - 1e-12 or t2 > w.t_end + 1e-12:
        raise ValueError("window exceeds the solution horizon")
    # the last segment continues the whole history, so it holds every kink
    cuts = w.segments[-1]._kinks
    brk = _time_breakpoints(w, t1, t2, x1, x2, cuts)
    width, span = x2 - x1, t2 - t1
    # time cells (lo, hi, splits); cell j's 13 rows start at row first[j].
    # As in x, intervals of length <= 1e-13 drop: an event and a front's
    # crossing of its position can be breakpoints a few ulps apart, and
    # Kronrod rows there round onto them and read the other side
    keep = np.diff(brk) > 1e-13
    tlo, thi = brk[:-1][keep], brk[1:][keep]
    tdepth = np.zeros(tlo.size, dtype=int)
    first = 2 + _NODES.size * np.arange(tlo.size)
    undecided = np.ones(tlo.size, dtype=bool)
    total = np.zeros(2)
    # rows: rows 0 and 1 are t1 and t2; sums holds each row's final x
    # integrals of the two identities' integrands
    times, sums = np.empty(0), np.empty((0, 2))
    new_rows = np.concatenate([[t1, t2], _cells(tlo, thi)[0].ravel()])
    # pending x cells: row, lo, hi, inside, splits
    cell = (np.empty(0, dtype=int), np.empty(0), np.empty(0), np.empty(0, dtype=bool), np.empty(0, dtype=int))
    while new_rows.size or cell[0].size:
        base = times.size
        times = np.concatenate([times, new_rows])
        sums = np.vstack([sums, np.zeros((new_rows.size, 2))])
        pos = w.positions(new_rows)
        row, lo, hi, inside = _pieces(pos, x1, x2, cuts)
        cell = tuple(np.concatenate(c) for c in zip(cell, (row + base, lo, hi, inside, np.zeros(row.size, dtype=int))))
        row, lo, hi, inside, depth = cell
        # the fronts inside the window on the new time cells' rows
        fr, fk = np.nonzero((pos > x1) & (pos < x2))
        on_cells = fr + base >= 2
        fr, fx = fr[on_cells] + base, pos[fr[on_cells], fk[on_cells]]
        new_rows = np.empty(0)

        x, half = _cells(lo, hi)
        xs, ts = x.ravel(), np.repeat(times[row], _NODES.size)
        v_all = w.evaluate_v(np.concatenate([xs, fx]), np.concatenate([ts, times[fr]]))
        v = v_all[: xs.size]
        sums[:, 0] += np.bincount(fr, front_speed(w.params, v_all[xs.size :]) * phi.value(fx, times[fr]), times.size)
        # the edges give phi over the excited set and v*psi over the window,
        # the time cells' rows phi_t over the excited set and v*psi_t + g*psi
        edge, ins = np.repeat(row < 2, _NODES.size), np.repeat(inside, _NODES.size)
        cells = ~edge
        ins_edge, ins_cells = ins & edge, ins & cells
        f = np.zeros((2, xs.size))
        f[0, ins_edge] = phi.value(xs[ins_edge], ts[ins_edge])
        f[0, ins_cells] = phi.dt(xs[ins_cells], ts[ins_cells])
        pv = psi.value(xs, ts)
        f[1, edge] = (v * pv)[edge]
        f[1, cells] = v[cells] * psi.dt(xs[cells], ts[cells]) + (reaction_rate(w.params, ins, v) * pv)[cells]
        k, err, size = _estimate(f.reshape(2, -1, _NODES.size), half)
        share = _TOL * 2.0 * half / width / np.where(row < 2, 1.0, span)
        ratio = np.max(err / np.maximum(share, _ROUNDING * size), axis=0)
        # a nan integrand passes, so that the residual reads nan
        ok = ~(ratio > 1.0)
        for i in (0, 1):
            sums[:, i] += np.bincount(row[ok], k[i, ok], times.size)
        pending = np.bincount(row[~ok], minlength=times.size)

        rows = first[:, None] + np.arange(_NODES.size)
        j = np.flatnonzero(undecided & ~np.any(pending[rows], axis=1))
        if j.size:
            ht = 0.5 * (thi[j] - tlo[j])
            kt, errt, sizet = _estimate(sums[rows[j]].transpose(2, 0, 1), ht)
            fail = np.any(errt > np.maximum(_TOL * 2.0 * ht / span, _ROUNDING * sizet), axis=0)
            total += np.sum(kt[:, ~fail], axis=1)
            undecided[j] = False
            split = j[fail]
            if np.any(tdepth[split] >= _MAX_DEPTH):
                c = split[tdepth[split] >= _MAX_DEPTH][0]
                raise RuntimeError(
                    f"weak_residual on window {window!r}: the time cell ({tlo[c]!r}, {thi[c]!r}) "
                    f"still fails after {_MAX_DEPTH} splits"
                )
            mid = tlo[split] + 0.5 * (thi[split] - tlo[split])
            lo_t, hi_t = np.concatenate([tlo[split], mid]), np.concatenate([mid, thi[split]])
            first = np.concatenate([first, times.size + _NODES.size * np.arange(lo_t.size)])
            tlo, thi = np.concatenate([tlo, lo_t]), np.concatenate([thi, hi_t])
            tdepth = np.concatenate([tdepth, np.tile(tdepth[split] + 1, 2)])
            undecided = np.concatenate([undecided, np.ones(lo_t.size, dtype=bool)])
            new_rows = _cells(lo_t, hi_t)[0].ravel()

        if np.any(depth[~ok] >= _MAX_DEPTH):
            j = np.flatnonzero(~ok & (depth >= _MAX_DEPTH))[0]
            raise RuntimeError(
                f"weak_residual on window {window!r}: the x cell ({lo[j]!r}, {hi[j]!r}) of the row "
                f"t={times[row[j]]!r} still fails after {_MAX_DEPTH} splits"
            )
        # each failing x cell splits into 2, 4, 8 or 16 equal cells
        parts = 2 ** np.clip(np.ceil(np.log2(ratio[~ok]) / 8.0), 1, 4).astype(int)
        parent = np.repeat(np.flatnonzero(~ok), parts)
        n = parts.repeat(parts)
        at = np.arange(parent.size) - np.repeat(np.cumsum(parts) - parts, parts)
        step = (hi[parent] - lo[parent]) / n
        cell = (
            row[parent],
            lo[parent] + at * step,
            np.where(at + 1 == n, hi[parent], lo[parent] + (at + 1) * step),
            inside[parent],
            depth[parent] + 1,
        )
    r1 = abs(sums[1, 0] - sums[0, 0] - total[0])
    r2 = abs(sums[1, 1] - sums[0, 1] - total[1])
    return float(r1), float(r2)


def interface_speed_integral(w: WeakSolution, label: int, t1: float, t2: float) -> float:
    """Quadrature of W(v(x_k(t), t)) dt along the labeled interface over
    [t1, t2]: one 6-point Gauss-Legendre cell (the Gauss subset of the
    residual's rule) per knot interval, summed segment by segment, with one
    field call for the nodes of all segments.

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
        nodes, half = _cells(cuts[:-1], cuts[1:], _NODES[1::2])
        nodes = nodes.ravel()
        weights.append((half[:, None] * _GAUSS[1::2]).ravel())
        xs.append(seg._path.eval(nodes)[:, seg.labels.index(label)])
        ts.append(nodes)
    if not weights:
        return 0.0
    speeds = front_speed(w.params, w.evaluate_v(np.concatenate(xs), np.concatenate(ts)))
    parts = np.split(speeds, np.cumsum([ws.size for ws in weights])[:-1])
    return sum(float(np.sum(ws * part)) for ws, part in zip(weights, parts))


# --- ill-posedness demo -------------------------------------------------------

def ill_posedness_demo(params: Parameters, horizon: float) -> tuple[WeakSolution, WeakSolution]:
    """Two weak solutions, (recede, advance), either side of the degenerate
    start Omega(0) = (0, R), v0 = max(a/b - arctan x, 0), where W(v0(0)) = 0.

    Each is run_weak's run from v0 shifted by +eta/b or -eta/b, eta twice the
    default margin, so that W(v0(0)) = -eta or +eta passes the start check.
    On the raised datum the left front reads the inside flow and recedes
    (moves right); on the lowered one it reads the outside flow and advances
    (moves left).  As eta -> 0 both data tend to the degenerate one, but the
    two solutions do not tend to each other.  R = tan(a/b) + 1 lies where v0
    is 0 (eta/b when raised), so the right front moves outward and meets
    nothing.  The profile's
    knots are 2,001 evenly spaced on [-a*horizon - 1, tan(a/b)], which
    covers the left front's reach a*horizon, and 0.
    """
    # nan fails every comparison, so `horizon <= 0.0` would let it pass
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    eta = 2.0 * default_margin(params)
    x_zero = math.tan(params.v_star)
    xs = np.union1d(np.linspace(-params.a * horizon - 1.0, x_zero, 2001), [0.0])
    omega = IntervalSet((0.0, x_zero + 1.0))
    recede, advance = (
        run_weak(params, omega, Profile(xs, np.maximum(params.v_star - np.arctan(xs) + shift, 0.0)), horizon)
        for shift in (eta / params.b, -eta / params.b)
    )
    if recede.events or advance.events:
        raise RuntimeError("a branch of the ill-posedness demo recorded an event; invariant violated")
    return recede, advance
