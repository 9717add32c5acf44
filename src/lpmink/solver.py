"""Discrete planar Lp Minkowski solver, 0 < p < 1.

Given an atomic measure not concentrated on any closed semicircle, finds a
polygon whose Lp surface area measure matches it by a damped Newton iteration
on h_i^(1-p) * edge_i(h) = mass_i over support numbers with all facets
active.  A cold Newton start is tried first; when it fails, a continuation
pads every mass, solves, and drives the pad to zero with warm-started Newton
stages.  Each Newton step is one O(n) cyclic-tridiagonal solve, damped by
halving the step until every facet stays active and the residual norm falls.
The halvings that provably fail positivity after a full step fails it are
skipped unevaluated, and after a failed decrease test the rest are evaluated
in blocks of rows, with the plain trials' own arithmetic, so the iterates are
plain halving's bit for bit (_newton_polish).
A measure on a closed semicircle is solved on the half body instead: the
chord normal opposite the semicircle joins the normals with its support
pinned at 0, so the origin lies on the chord, which carries no Lp mass, and
each Newton step is the same cyclic solve with the two couplings across the
chord cut.  A candidate above the residual tolerance raises
NoConvergenceError.  A finite symmetry group is enforced in the Newton
workspace: the targets are the masses' orbit means, and the start and each
step are averaged over the orbits, so every iterate is constant on each.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    AnchorOutsideError,
    ConcentratedError,
    MaxItersExceededError,
    NoConvergenceError,
    NoInteriorMaximizerError,
    NotSymmetricError,
    NotClosedUnderGroupError,
)
from .geometry import (
    Polygon,
    SymmetryGroup,
    TWO_PI,
    canonical_angles,
    circular_distance,
    circular_distances,
    circular_gaps,
    cyclic_shift,
    polygon_from_support,
    unit_vectors,
)
from .measure import (
    ANTIPODAL_PAIR,
    ATOM_MERGE_TOL,
    GENERAL_POSITION,
    SEMICIRCLE,
    SINGLE_DIRECTION,
    DiscreteMeasure,
    classify,
    lp_surface_measure,
)

log = logging.getLogger("lpmink.solver")


def _load_dgtsv():
    """LAPACK dgtsv from scipy's Fortran LAPACK extension, loaded on its own.

    `from scipy.linalg.lapack import dgtsv` runs scipy.linalg's package init,
    ~0.3 s of import time for the one routine the Newton core calls.
    find_spec locates scipy without running any package code, and only the
    extension `scipy.linalg._flapack` is loaded, under its own name.  CPython
    keeps one copy of a single-phase extension module and registers it in
    sys.modules, so a later `import scipy.linalg` takes this module as it
    is: the routine is scipy.linalg.lapack.dgtsv.  A scipy without the
    extension in that place raises ImportError naming where it looked.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("lpmink needs scipy's LAPACK extension, and scipy is not installed")
    linalg = str(Path(scipy.origin).parent / "linalg")
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", [linalg])
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {linalg}")
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dgtsv


dgtsv = _load_dgtsv()


# Gradient tolerance and iteration cap of the anchor maximization
# (optimal_anchor, a verification tool; the solver itself never calls it).
ANCHOR_TOL = 1e-10
ANCHOR_MAX_ITERS = 200


@dataclass
class SolverConfig:
    """Residual gate of the discrete solve: a body whose relative per-atom
    mismatch exceeds tol_residual is never returned."""

    tol_residual: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.tol_residual < math.inf:  # NaN fails too: res > nan gates nothing
            raise ValueError("tol_residual must be a positive finite number")


@dataclass
class SolveReport:
    """Outcome of a solve.  outer_iters counts pad-continuation stages (0 when
    Newton from the start converged); newton_iters counts Newton steps."""

    residual: float = math.inf
    outer_iters: int = 0
    newton_iters: int = 0
    classification: str = GENERAL_POSITION
    symmetry: str = "trivial"
    warnings: list = field(default_factory=list)
    m_final: int | None = None
    loop_history: list | None = None

    def to_dict(self) -> dict:
        d = {
            "residual": self.residual,
            "outer_iters": self.outer_iters,
            "newton_iters": self.newton_iters,
            "classification": self.classification,
            "symmetry": self.symmetry,
            "warnings": list(self.warnings),
        }
        if self.m_final is not None:
            d["m_final"] = self.m_final
        if self.loop_history is not None:
            d["loop_history"] = self.loop_history
        return d


@dataclass(eq=False)
class OrbitStructure:
    """Partition of normal indices into orbits of a finite group action,
    held as blocks: one C-ordered matrix per orbit size, a row per orbit
    holding its indices in increasing order.  == is identity: comparing the
    blocks array by array would raise."""

    blocks: list

    def average(self, values: np.ndarray) -> np.ndarray:
        """Each value replaced by its orbit's mean, one row-wise mean per
        orbit size (orbits on reflection axes are half size).  A row holds
        its orbit's indices in increasing order, which fixes the order of
        the sum.  The mean is np.add.reduce along the row divided by the
        orbit size, np.mean's own arithmetic on float rows without its
        wrapper; values are floats."""
        out = np.empty_like(values, dtype=float)
        for rows in self.blocks:
            out[rows] = np.add.reduce(values[rows], axis=1, keepdims=True) / rows.shape[1]
        return out


def orbit_partition(normals, G: SymmetryGroup) -> OrbitStructure:
    """Orbits of the normal index set under G, by index arithmetic on the n
    sorted normals t (a measure's thetas already are).  Rotation by 2 pi / k
    keeps cyclic order, so on an invariant set it maps t[i] to t[i + n / k]
    and G's reflection, which reverses it, maps t[i] to t[c - i] (mod n),
    c the normal nearest to the image of t[0].  One check per generator
    confirms each map within ATOM_MERGE_TOL.  An orbit is then the rotation
    images of an r < n / k and, for a dihedral G, of its mirror index, a
    block row listing its input indices in increasing order.  Sets not
    invariant, n not a multiple of k included, raise NotClosedUnderGroupError."""
    t = np.asarray(normals, dtype=float)
    order = None
    if not (t[1:] > t[:-1]).all():
        order = np.argsort(t, kind="stable")
        t = t[order]
    if not (t[0] >= 0.0 and t[-1] < TWO_PI):
        t = canonical_angles(normals)
        order = np.argsort(t, kind="stable")
        t = t[order]
    n, k = len(t), G.order_k
    if n % k:
        raise NotClosedUnderGroupError(
            f"{n} normals cannot be invariant under {G.label()}: {k} does not divide {n}"
        )
    s = n // k
    r, rotations = np.arange(s), s * np.arange(k)
    maps = [] if k == 1 else [(cyclic_shift(t, -s), t + TWO_PI / k)]
    if G.kind == "dihedral":
        image = 2.0 * G.axis - t
        j = int(np.searchsorted(t, image[0] % TWO_PI)) % n
        c = min(j - 1, j, key=lambda x: circular_distance(t[x], image[0])) % n
        maps.append((cyclic_shift(t[::-1], c + 1), image))
        q = (c - r) % s  # r's mirror index, up to rotation
        pair = r < q
        rows = np.stack((r[pair], q[pair]), axis=1)[:, None, :] + rotations[:, None]
        blocks = [r[r == q, None] + rotations, rows.reshape(-1, 2 * k)]
    else:
        blocks = [r[:, None] + rotations]
    for mapped, image in maps:
        near = circular_distances(mapped, image) <= ATOM_MERGE_TOL
        if not near.all():
            raise _not_closed(t, canonical_angles(image), ~near, G)
    if order is not None:
        blocks = [np.sort(order[rows], axis=1) for rows in blocks]
    return OrbitStructure([rows for rows in blocks if rows.size])


def invariant_orbits(thetas: np.ndarray, masses: np.ndarray, G: SymmetryGroup):
    """(orbits, means) of the measure with masses at the sorted thetas under
    G, solve_discrete's Newton workspace and targets: orbit_partition's
    orbits and the masses averaged over them.  The one invariance test: a
    normal set G does not map to itself, or a mass more than 1e-8 of its
    orbit's mean away from it, raises NotSymmetricError."""
    try:
        orbits = orbit_partition(thetas, G)
    except NotClosedUnderGroupError as exc:
        raise NotSymmetricError(f"measure is not invariant under {G.label()}: {exc}") from exc
    means = orbits.average(masses)
    if (np.abs(masses - means) > 1e-8 * np.maximum(means, 1e-300)).any():
        raise NotSymmetricError(f"measure is not invariant under {G.label()}: "
                                "atom masses are not constant on group orbits")
    return orbits, means


def _not_closed(t, y, off, G: SymmetryGroup) -> NotClosedUnderGroupError:
    """The error for sorted normals t whose images y miss their index map
    where off holds: the first normal whose image has no normal within the
    tolerance, else (normals closer than twice it) the first one off."""
    j = np.searchsorted(t, y) % len(t)
    near = circular_distances(t[np.stack((j - 1, j))], y).min(axis=0) <= ATOM_MERGE_TOL
    if near.all():
        return NotClosedUnderGroupError(f"the images of the normal at {t[np.argmax(off)]:.12g} "
                                        f"under {G.label()} do not form an orbit")
    i = np.argmin(near)
    return NotClosedUnderGroupError(f"normal at {t[i]:.12g} maps to {y[i]:.12g}, not in the set")


class _Workspace:
    """Fixed normal-set quantities of the sorted normals thetas: the gaps
    from and to each normal and the three bands of the cyclic tridiagonal
    edge form L (edge lengths = L h when all facets are active, V = h.Lh/2).

    A chord, in [0, 2 pi), gives the half problem: the chord normal, its
    support pinned at 0, lies opposite the normals' closed semicircle.  The
    normals i = (k - 1) % n and j = k % n next to it, k its insertion point,
    take their gaps to it, and its zero support cuts their couplings across
    it: up[i] = lo[j] = 0.  Those gaps must be pi / 2 (less ATOM_MERGE_TOL)
    or more, and less than pi, else ValueError.  The chord's own edge,
    h_i / sin(gaps[i]) + h_j / sin(before[j]) with both sines in (0, 1], is
    positive in floating point wherever h_i and h_j are, so the positivity
    tests of h in _newton_polish are the chord's too.  orbits, a nontrivial
    group's, make average the orbit mean, else the identity."""

    def __init__(self, thetas: np.ndarray, alphas: np.ndarray, p: float,
                 chord: float | None = None, orbits: OrbitStructure | None = None):
        self.alpha = alphas
        self.p = p
        self.average = (lambda x: x) if orbits is None else orbits.average
        self.n = n = len(thetas)
        gaps = circular_gaps(thetas)  # from each normal to the next
        before = cyclic_shift(gaps, 1)  # to each normal from the last
        if chord is not None:
            k = int(np.searchsorted(thetas, chord))
            i, j = (k - 1) % n, k % n
            gaps[i], before[j] = circular_gaps(
                np.concatenate((thetas[:k], [chord], thetas[k:])))[[k - 1, k]]
            if not (min(gaps[i], before[j]) >= 0.5 * math.pi - ATOM_MERGE_TOL
                    and max(gaps[i], before[j]) < math.pi):
                raise ValueError("the normals next to the chord must be pi / 2 or more, "
                                 "and less than pi, away from it")
        self.gaps, self.before = gaps, before
        inv_sin = 1.0 / np.sin(gaps)
        cot = np.cos(gaps) * inv_sin
        self.diag = -(cot + cyclic_shift(cot, 1))
        self.up = inv_sin  # L[i, i+1]
        self.lo = cyclic_shift(inv_sin, 1)  # L[i, i-1]
        if chord is not None:
            self.diag[j] = -(cot[j] + np.cos(before[j]) * (1.0 / np.sin(before[j])))
            self.up[i] = self.lo[j] = 0.0
        # index arrays: edge_form runs in every line-search step, and a
        # gather costs less than a concatenation at the sizes of most solves
        idx = np.arange(n)
        self.nxt = cyclic_shift(idx, -1)
        self.prv = cyclic_shift(idx, 1)
        # right-hand sides of solve_linear's gtsv call, Fortran order so
        # that gtsv overwrites them in place
        self._rhs = np.empty((n, 2), order="F")

    def edge_form(self, h: np.ndarray) -> np.ndarray:
        """L h, or L h for each row h of a (k, n) block, by the same
        elementwise operations."""
        if h.ndim == 2:
            return self.diag * h + self.up * h[:, self.nxt] + self.lo * h[:, self.prv]
        return self.diag * h + self.up * h[self.nxt] + self.lo * h[self.prv]

    def volume(self, h: np.ndarray) -> float:
        return 0.5 * float(h @ self.edge_form(h))

    def jacobian(self, h: np.ndarray, w: np.ndarray, ell: np.ndarray):
        """Bands (lo, diag, up) of d/dh of S(h) = h^(1-p) * (L h), given
        w = h^(1-p) and ell = L h, in new arrays."""
        p = self.p
        return w * self.lo, w * self.diag + (1.0 - p) * h ** (-p) * ell, w * self.up

    def solve_linear(self, J, rhs: np.ndarray) -> np.ndarray:
        """Solve J x = rhs for a cyclic tridiagonal J given by its bands,
        overwriting the bands (jacobian's are temporaries).

        The open band goes to one tridiagonal LU with two right-hand sides
        (LAPACK gtsv, which scipy.linalg.solve_banded calls after argument
        checks that cost ~10x the solve at n < 100); the corners J[0, n-1]
        and J[n-1, 0] come back as a rank-one Sherman-Morrison correction
        (Numerical Recipes, section 2.7), in Python floats.  A singular band
        raises LinAlgError; a near-singular correction, its denominator
        1 + vz exactly 0 included, returns a non-finite x.
        """
        lo, d, up = J
        beta, alpha = float(lo[0]), float(up[-1])  # J[0, n-1], J[n-1, 0]
        gamma = -float(d[0])
        d[0] -= gamma
        d[-1] -= alpha * beta / gamma
        b = self._rhs
        b[:, 0] = rhs
        b[:, 1] = 0.0
        b[0, 1], b[-1, 1] = gamma, alpha
        *_, yz, info = dgtsv(lo[1:], d, up[:-1], b, overwrite_dl=1, overwrite_d=1,
                             overwrite_du=1, overwrite_b=1)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        y, z = yz[:, 0], yz[:, 1]
        ratio = beta / gamma
        vy = float(y[0]) + ratio * float(y[-1])
        vz = float(z[0]) + ratio * float(z[-1])
        den = 1.0 + vz
        return y - (vy / den if den else math.nan) * z


def anchor_objective(P: Polygon, xi, mu: DiscreteMeasure, p: float) -> float:
    """Integral of (support of P - xi)^p against the measure's atoms."""
    xi = np.asarray(xi, dtype=float)
    slack = P.support_values(mu.thetas) - unit_vectors(mu.thetas) @ xi
    if np.any(slack < -1e-12):
        raise AnchorOutsideError("anchor point outside the body")
    return float(np.sum(mu.masses * np.clip(slack, 0.0, None) ** p))


def _anchor_newton(U, alpha, h, p, tol, max_iters, xi0):
    """Interior maximizer of the strictly concave anchored objective.

    The gradient is a difference of large one-sided sums when masses are
    wildly unequal, so the stopping test floors the tolerance at the float
    noise level of that cancellation.
    """
    xi = np.asarray(xi0, dtype=float).copy()
    s = h - U @ xi
    if np.any(s <= 0):
        xi = np.zeros(2)
        s = h.copy()
        if np.any(s <= 0):
            raise AnchorOutsideError("no strictly feasible start for the anchor solve")

    def value(slack):
        return float(np.sum(alpha * slack ** p))

    f = value(s)
    for it in range(max_iters):
        w = alpha * p * s ** (p - 1.0)
        g = -(U.T @ w)
        gnorm = float(np.hypot(*g))
        tol_eff = max(tol, 64.0 * np.finfo(float).eps * float(np.sum(np.abs(w))))
        if gnorm <= tol_eff:
            return xi
        if s.min() < 1e-14:
            d = -g  # gradient fallback near the boundary
        else:
            wh = alpha * p * (p - 1.0) * s ** (p - 2.0)
            H = (U * wh[:, None]).T @ U
            try:
                d = -np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                d = -g
        du = U @ d
        pos = du > 0
        tmax = float(np.min(s[pos] / du[pos])) if pos.any() else math.inf
        t = min(1.0, 0.95 * tmax)
        ok = False
        for _ in range(60):
            s_try = s - t * du
            if s_try.min() > 0:
                f_try = value(s_try)
                if f_try >= f + 1e-4 * t * float(g @ d):
                    ok = True
                    break
            t *= 0.5
        if not ok or t * float(np.hypot(*d)) < 1e-17 * (1.0 + float(np.hypot(*xi))):
            if gnorm > 1e3 * tol_eff and s.min() < 1e-12:
                raise NoInteriorMaximizerError(
                    "anchor maximizer escapes to the boundary"
                )
            return xi  # stagnated within a numerically flat basin
        xi = xi + t * d
        s = s - t * du
        f = value(s)
    raise MaxItersExceededError("anchor maximization did not converge")


def optimal_anchor(P: Polygon, mu: DiscreteMeasure, p: float) -> np.ndarray:
    """The unique interior point maximizing the anchored mass objective."""
    if classify(mu).tag != GENERAL_POSITION:
        raise NoInteriorMaximizerError("measure concentrated on a closed semicircle")
    xi0 = P.vertices.mean(axis=0)
    return _anchor_newton(
        unit_vectors(mu.thetas), mu.masses, P.support_values(mu.thetas), p,
        ANCHOR_TOL, ANCHOR_MAX_ITERS, xi0,
    )


def _cyclic_neighbours(grid: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The two cyclic neighbours in the n sorted angles grid of each angle
    x[i], (k - 1) % n and k % n for its insertion point k: the lower index
    in row 0, the higher in row 1.  Only at the seam, k = 0 or k = n, is
    (k - 1) % n the higher one."""
    k = np.searchsorted(grid, x)
    a, b = (k - 1) % len(grid), k % len(grid)
    return np.array((np.minimum(a, b), np.maximum(a, b)))


def measure_residual(P: Polygon, mu: DiscreteMeasure, p: float) -> float:
    """Relative per-atom mismatch of S_{P,p} against mu, plus any boundary
    mass sitting off the support of mu (relative to mu's total mass)."""
    nu = lp_surface_measure(P, p)
    total = mu.total_mass()
    # Each atom of mu is matched to the circularly nearest atom of nu, which
    # is one of its two cyclic neighbours (nu's atoms lie more than
    # ATOM_MERGE_TOL apart); a tie goes to the lower index.
    cand = _cyclic_neighbours(nu.thetas, mu.thetas)
    d = circular_distances(nu.thetas[cand], mu.thetas)
    j = np.where(d[0] <= d[1], cand[0], cand[1])
    hit = d.min(axis=0) <= ATOM_MERGE_TOL
    got = np.where(hit, nu.masses[j], 0.0)
    matched = np.zeros(nu.n, dtype=bool)
    matched[j[hit]] = True
    # fmax skips NaN as the scalar max(worst, .) did
    worst = np.fmax.reduce(np.abs(got - mu.masses) / np.maximum(mu.masses, 1e-30), initial=0.0)
    off = float(nu.masses[~matched].sum())
    return float(worst) + off / max(total, 1e-30)


def _reactivate(ws: _Workspace, h: np.ndarray):
    """Blend h toward its mean c until every row of edge_form clears the
    floor n 1e-15; return the blend and, when that is h itself,
    edge_form(h), else None.  The constant body has every facet active:
    the polygon circumscribed about a disc or, on a workspace with a chord,
    whose support stays 0, the half disc, whose chord edge is positive and
    whose facets next to the chord, at pi / 2 or more from it, are too.
    The chord edge is positive wherever the blend is, and _newton_polish
    refuses a blend that is not.  edge_form is linear, so a row failing at
    h (NaN included) clears the floor past s_i = (floor - ell_i) / (ellc_i -
    ell_i), ellc = edge_form(c); the blend (1 - s) h + s c takes s = 1.25
    max s_i, or 1 when that is larger or NaN or a failing row has ellc_i <=
    floor."""
    ell = ws.edge_form(h)
    floor = ws.n * 1e-15
    if ell.min() > floor:
        return h, ell
    c = float(h.mean())
    target = c * np.ones_like(h)
    fail = ~(ell > floor)
    ell, ell_c = ell[fail], ws.edge_form(target)[fail]
    s = 1.0
    if (ell_c > floor).all():
        s = min(s, 1.25 * float(((floor - ell) / (ell_c - ell)).max()))
    return (1 - s) * h + s * target, None


# Trials of one line search: t = 1, 1/2, ..., 2^-49.
_TRIALS = 50
# A trial t >= R _SKIP fails h > 0, and none below R / _SKIP does
# (_newton_polish).
_SKIP = 1.0 + 2.0**-50
# Blocks of the line search: at most _BLOCK_ROWS trials and
# _BLOCK_FLOATS floats per array.
_BLOCK_ROWS, _BLOCK_FLOATS = 8, 4096
# Relative margin of the block's row-sum screen, far above the 2 n 2^-53
# <= 1e-12 by which a row sum and F.dot(F) can differ at n <= 4096.
_SCREEN = 1e-9
# Per trial: t, the decrease test's factor 1 - t / 4 as a single trial
# computes it, and that factor squared with the screen's margin.
_HALVINGS = np.ldexp(1.0, -np.arange(_TRIALS))
_DECREASE = 1.0 - 0.25 * _HALVINGS
_SCREEN_LIMITS = _DECREASE * _DECREASE * (1.0 + _SCREEN)


def _newton_polish(ws: _Workspace, h: np.ndarray, target: np.ndarray,
                   tol: float, max_iters: int = 80):
    """Damped Newton on h^(1-p) * (L h) = target inside the all-active cone
    from _reactivate's blend of ws.average(h); (h, inf, 0) if that is
    outside.

    Each step, the averaged Newton direction, backtracks by halving (Dennis
    and Schnabel, Numerical Methods for Unconstrained Optimization, 1983,
    section 6.3): it takes the first of the 50 trials t = 1, 1/2, ...,
    2^-49 at which h_t = h + t step has h_t > 0, L h_t > 0 and |F(h_t)| <=
    (1 - t / 4) |F(h)|, F = h^(1-p) L h - target, and Newton stops when
    none passes.  The blend and each trial put equal entries through the
    same operations, so every iterate is exactly constant on each orbit.
    The search reaches that t with fewer evaluations, and each value it
    computes is the plain trial's, by the same elementwise operations, so
    h, err and the step count are plain halving's bit for bit:

    - Skip.  Once the full step fails h > 0, let R = -1 / min(step_i /
      h_i), the least h_i / -step_i over step_i < 0 with two roundings.
      Every trial t >= R (1 + 2^-50) fails h > 0, and counts against the 50
      unevaluated: R and that bound carry three roundings of under 2^-53
      each, so t |step_i| > h_i exactly at R's index, and rounding, being
      monotone, keeps h_i + t step_i <= 0.  Below R / (1 + 2^-50) no trial
      fails h > 0, as t step_i is exact for a power of two t; the one power
      of two between the two bounds, if any, is decided by the exact test.
    - Block.  A trial that has h > 0 at t has it at every smaller t.  Once
      a trial passes both positivity tests and fails the decrease test, the
      trials left go in blocks of up to 8 rows, 4096 floats in all, through
      edge_form and h ** (1 - p) as one (k, n) array, and no row needs the
      h > 0 test.  A row whose sum of squares of F exceeds the bound
      squared by more than the margin _SCREEN fails the decrease test,
      since that sum and F.dot(F) differ by at most 2 n 2^-53 of either.
      The rows left get the plain trial's L h > 0 and F.dot(F) tests in
      order, and the first to pass is taken."""
    p = ws.p
    h, ell = _reactivate(ws, ws.average(h))
    if ell is None:
        ell = ws.edge_form(h)
    if ell.min() <= 0 or h.min() <= 0:
        return h, math.inf, 0
    w = h ** (1.0 - p)
    F = w * ell - target
    err = float((np.abs(F) / target).max())
    iters = 0
    for it in range(max_iters):
        if err <= tol:
            break
        try:
            step = ws.average(ws.solve_linear(ws.jacobian(h, w, ell), -F))
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(step).all():
            break
        fnorm = math.sqrt(F.dot(F))
        t, tries = 1.0, 0
        found = None
        while tries < _TRIALS:
            h_try = h + t * step
            tries += 1
            if h_try.min() > 0:
                ell_try = ws.edge_form(h_try)
                if ell_try.min() > 0:
                    w_try = h_try ** (1.0 - p)
                    F_try = w_try * ell_try - target
                    if math.sqrt(F_try.dot(F_try)) <= (1.0 - 0.25 * t) * fnorm:
                        found = h_try, w_try, ell_try, F_try
                        break
                    if 2 * ws.n <= _BLOCK_FLOATS:
                        found = _block_search(ws, h, step, target, fnorm, tries)
                        break
            elif tries == 1:
                t, tries = _skip_nonpositive(h, step)
                continue
            t *= 0.5
        iters = it + 1
        if found is None:
            break
        h, w, ell, F = found
        err = float((np.abs(F) / target).max())
    return h, err, iters


def _skip_nonpositive(h, step):
    """(t, tries) once the full step h + step fails h > 0, h itself
    positive: t the first halving not shown to fail h > 0, and tries the
    trials before it, the full step included."""
    r = -1.0 / float((step / h).min())
    t, tries = 0.5, 1
    while tries < _TRIALS and (t >= r * _SKIP
                               or t >= r / _SKIP and not (h + t * step).min() > 0):
        t *= 0.5
        tries += 1
    return t, tries


def _block_search(ws: _Workspace, h, step, target, fnorm: float, tries: int):
    """The line search's trials after the first tries of them, in blocks
    of rows (_newton_polish): (h, w, L h, F) at the first that passes, else
    None."""
    p = ws.p
    rows = min(_BLOCK_ROWS, _BLOCK_FLOATS // ws.n)
    fnorm2 = fnorm * fnorm
    for start in range(tries, _TRIALS, rows):
        block = slice(start, min(start + rows, _TRIALS))
        H = h + _HALVINGS[block, None] * step
        ell = ws.edge_form(H)
        W = H ** (1.0 - p)
        F = W * ell - target
        screened = np.einsum("ij,ij->i", F, F) <= _SCREEN_LIMITS[block] * fnorm2
        for j in np.flatnonzero(screened).tolist():
            F_j = F[j].copy()
            if ell[j].min() > 0 and math.sqrt(F_j.dot(F_j)) <= _DECREASE[start + j] * fnorm:
                return H[j].copy(), W[j].copy(), ell[j].copy(), F_j
    return None


def _radial_init(ws: _Workspace) -> np.ndarray:
    """Per-atom radial guess from S_i ~ h_i^(2-p) * (angular weight)."""
    return (ws.alpha / (0.5 * (ws.gaps + ws.before))) ** (1.0 / (2.0 - ws.p))


def _continuation_newton(ws: _Workspace, h0: np.ndarray, cfg: SolverConfig):
    """Newton along a target homotopy: pad every mass by a multiple of the
    mean, then drive the pad to zero.  The padded targets keep all facets
    comfortably active (the role of a vanishing log-barrier) while warm
    starts track the solution branch; the pad step is bisected whenever a
    stage loses the branch.  Returns (h, err, newton_iters, stages), where
    stages counts the Newton solves along the homotopy."""
    alpha, p = ws.alpha, ws.p
    meanm = float(alpha.mean())
    stage_tol = min(1e-6, cfg.tol_residual)
    pad = max(1.0, 10.0 * float(alpha.max()) / meanm)
    target = alpha + pad * meanm
    S0 = np.clip(h0, 1e-300, None) ** (1.0 - p) * np.clip(ws.edge_form(h0), 1e-300, None)
    h = h0 * (float(target.sum()) / float(S0.sum())) ** (1.0 / (2.0 - p))
    h, err, iters = _newton_polish(ws, h, target, stage_tol)
    stages = 1
    if err > 1e-5:
        return h0, math.inf, iters, stages
    pad_good, h_good, total_good = pad, h, float(target.sum())
    pad_try = pad * 0.1
    for _ in range(120):
        stages += 1
        target = alpha + pad_try * meanm
        h_start = h_good * (float(target.sum()) / total_good) ** (1.0 / (2.0 - p))
        h_new, err, it = _newton_polish(ws, h_start, target, stage_tol)
        iters += it
        if err <= 1e-5:
            pad_good, h_good, total_good = pad_try, h_new, float(target.sum())
            if pad_try < 1e-13:
                break
            pad_try *= 0.1
        else:
            ratio = pad_try / pad_good
            if ratio > 0.93:
                return h_good, math.inf, iters, stages  # branch lost; step refinements exhausted
            pad_try = pad_good * math.sqrt(ratio)
    h_fin, err, it = _newton_polish(ws, h_good, alpha, cfg.tol_residual)
    return h_fin, err, iters + it, stages + 1


def _fit_scale(S: np.ndarray, alpha: np.ndarray) -> float:
    """S ~ c * alpha: total-mass ratio refined by least squares on logs."""
    c = float(S.sum() / alpha.sum())
    mask = S > 0
    if mask.any():
        w = alpha[mask]
        logs = np.log(S[mask] / w)
        c_ls = float(np.exp((logs * w).sum() / w.sum()))  # np.average's arithmetic
        if 0.0 < c_ls < math.inf:
            c = c_ls
    if not (0.0 < c < math.inf):
        c = 1.0
    return c


def _newton_then_continuation(ws: _Workspace, h0: np.ndarray, cfg: SolverConfig):
    """The solve attempt: Newton from the start, then pad continuation from a
    radial guess.  Returns (h, stages, newton_iters) for the Newton candidate
    when it is within tolerance, else for the better of the two."""
    p, alpha = ws.p, ws.alpha
    h = np.maximum(h0, 1e-8)
    h = h / math.sqrt(max(ws.volume(h), 1e-300))

    # Cheap first shot: warm starts usually land inside Newton's basin.
    S = np.clip(h, 1e-300, None) ** (1.0 - p) * np.clip(ws.edge_form(h), 0.0, None)
    c = _fit_scale(S, alpha)
    h_new, err, newton = _newton_polish(ws, h * c ** (-1.0 / (2.0 - p)), alpha,
                                        cfg.tol_residual)
    if err <= cfg.tol_residual:
        return h_new, 0, newton

    # Target continuation from a radially scaled guess handles wild mass
    # ratios that defeat a cold Newton start.
    h_cont, err_cont, it_cont, stages = _continuation_newton(ws, _radial_init(ws), cfg)
    newton += it_cont
    if err_cont < err:
        return h_cont, stages, newton
    return h_new, stages, newton


def half_group(G: SymmetryGroup, w: float) -> SymmetryGroup:
    """The part of G a measure on the closed semicircle about w, a single
    atom at w included, can be invariant under: the trivial group, or D1
    across lin(w) restated with the axis w itself; any other G raises
    NotSymmetricError.  The reflection across lin(v), v = w + pi / 2, maps
    the semicircle onto the opposite one.  Only the group is looked at: the
    measure's own invariance is invariant_orbits' test."""
    if G.is_trivial:
        return G
    if G.kind == "dihedral" and G.order_k == 1:  # lin(a) = lin(b) when 2 a = 2 b mod 2 pi
        if circular_distance(2.0 * G.axis, 2.0 * w) <= 2e-9:
            return SymmetryGroup.dihedral(1, w)
        if circular_distance(2.0 * G.axis, 2.0 * w + math.pi) <= 2e-9:  # 2 v = 2 w + pi
            raise NotSymmetricError(f"measure is not invariant under {G.label()}: it maps "
                                    "the support's semicircle onto the opposite one")
    raise NotSymmetricError(f"symmetry {G.label()} is incompatible with a "
                            "semicircle-supported measure")


def solve_discrete(mu: DiscreteMeasure, p: float, G: SymmetryGroup | None = None,
                   cfg: SolverConfig | None = None, h0=None, chord: float | None = None):
    """Polygon P with S_{P,p} = mu for an atomic measure in general position,
    or, given chord, on a closed semicircle.

    Returns (Polygon, SolveReport), the report naming G.  Raises
    ConcentratedError when, without chord, the measure sits in a closed
    semicircle (use solve_semicircle), NotSymmetricError when mu is not
    invariant under the group enforced, and NoConvergenceError carrying
    the best report, which names G too, otherwise.  A nontrivial group is
    enforced here alone, on the orbits invariant_orbits builds: Newton's
    targets are the orbit means and its workspace takes the orbits, so
    every iterate, the returned support numbers included, is constant on
    each orbit (_newton_polish); the gate reads mu as given.

    chord, an angle in [0, 2 pi), solves the half problem of a measure on
    the closed semicircle about chord + pi: the body has the chord normal
    among its normals, with support 0, so the origin lies on its chord.
    Newton runs the whole circle's system on mu's normals with the two
    couplings across the chord cut (_Workspace, which raises ValueError
    unless the atoms next to the chord are pi / 2 or more, and less than pi,
    away from it); the chord's 0 joins the support numbers only to build
    the body.  A single direction or an antipodal pair raises
    ConcentratedError.  The group enforced is half_group(G, chord - pi),
    which refuses a G that moves the chord normal.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    cfg = cfg or SolverConfig()
    G = G or SymmetryGroup.trivial()
    cls = classify(mu)
    theta = mu.thetas
    alpha = mu.masses
    if chord is None:
        if cls.tag != GENERAL_POSITION:
            raise ConcentratedError(
                f"measure is {cls.tag}; not in general position"
            )
    elif cls.tag in (SINGLE_DIRECTION, ANTIPODAL_PAIR):
        raise ConcentratedError(f"measure is {cls.tag}; the chord needs a proper semicircle")

    H = G if chord is None else half_group(G, chord - math.pi)
    orbits, alpha = (None, alpha) if H.is_trivial else invariant_orbits(theta, alpha, H)

    # Normalize the mass scale: solving mu/s and dilating by s^(1/(2-p))
    # keeps every internal tolerance scale-free.
    mass_scale = float(alpha.mean())
    body_scale = mass_scale ** (1.0 / (2.0 - p))
    h_init = np.ones(len(theta))
    if h0 is not None:
        h0 = np.asarray(h0, dtype=float)
        if h0.shape != theta.shape:
            raise ValueError("warm start h0 must provide one value per atom")
        h_init = h0 / body_scale

    ws = _Workspace(theta, alpha / mass_scale, p, chord, orbits)
    h, outer, newton = _newton_then_continuation(ws, h_init, cfg)
    h = h * body_scale
    if chord is not None:
        k = int(np.searchsorted(theta, chord))
        theta = np.concatenate((theta[:k], [chord], theta[k:]))
        h = np.concatenate((h[:k], [0.0], h[k:]))
    P = polygon_from_support(theta, h)
    res = measure_residual(P, mu, p)
    report = SolveReport(
        residual=res,
        outer_iters=outer,
        newton_iters=newton,
        classification=cls.tag if chord is None else SEMICIRCLE,
        symmetry=G.label(),
    )
    if res > cfg.tol_residual:
        raise NoConvergenceError(
            f"residual {res:.3e} above tolerance {cfg.tol_residual:.1e}", report
        )
    return P, report
