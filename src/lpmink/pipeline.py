"""End-to-end solves for general measures on the circle.

Routes by support classification: general position goes through the discrete
solver, measures on a closed semicircle through the half problem, whose body
has the chord normal opposite the semicircle with support 0, and a pair of
antipodal atoms is the one nonexistence case.  Each job has one code path:
`discretize` is the one grid measure of the whole circle (the refinement
loop's stages, `verify` and the `--svg` rays all use it), `_half_grid` its
restriction to a semicircle, `stage_measure` the one choice between them
(the loop's stages and `lpmink discretize`), and `_solve_reduced` the one
semicircle route, for atoms and densities alike.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AntipodalPairError,
    CannotAvoidAtomsError,
    ConcentratedError,
    NoConvergenceError,
    NotClosedUnderGroupError,
    NotSymmetricError,
)
from .geometry import (
    ANGLE_TOL,
    TWO_PI,
    Isometry2,
    Polygon,
    SymmetryGroup,
    canonical_angle,
    canonical_angles,
    circular_distance,
    cyclic_shift,
    dilate,
    group_orbit_maps,
    polygon_from_support,
    support_distance,
)
from .measure import (
    ANTIPODAL_PAIR,
    ATOM_MERGE_TOL,
    GENERAL_POSITION,
    SEMICIRCLE,
    SINGLE_DIRECTION,
    DiscreteMeasure,
    MeasureClass,
    MeasureSpec,
    classify,
    lp_surface_measure,
)
from .solver import (
    OrbitStructure,
    SolveReport,
    SolverConfig,
    index_blocks,
    measure_residual,
    solve_discrete,
)

log = logging.getLogger("lpmink.pipeline")

NO_CONVERGENCE_WARNING = "no-convergence: m_max reached before stabilization"

# The refinement loop stops once consecutive bodies' support functions differ
# by at most this fraction of the diameter.
TOL_BODY = 1e-4


@dataclass
class PipelineConfig(SolverConfig):
    """Solver residual gate plus the first and largest resolution of the
    refinement loop, which doubles m from m0 up to m_max."""

    m0: int = 64
    m_max: int = 8192

    def __post_init__(self):
        super().__post_init__()
        if not 3 <= self.m0 <= self.m_max:
            raise ValueError("need 3 <= m0 <= m_max")


def classify_spec(spec: MeasureSpec) -> MeasureClass:
    """Support classification of an atoms-plus-density measure.

    The support is the union of the atoms and the knot intervals where the
    density is positive at either end.  A density positive at every knot
    supports the whole circle, whatever the atoms: general position.
    Otherwise _classify_intervals merges the intervals.
    """
    if spec.is_purely_atomic():
        return classify(spec.atoms)
    if (spec.density.values > 0.0).all():
        return MeasureClass(GENERAL_POSITION, TWO_PI)
    return _classify_intervals(spec)


def _classify_intervals(spec: MeasureSpec) -> MeasureClass:
    """classify_spec of a measure with a density by merging its support
    intervals: sorted by start, they merge while a start is within 1e-12 of
    the running maximum of the ends; the last merged interval joins the
    first across the seam when it reaches it, and so does every later one
    that starts within 1e-12 of the joined interval's end.  The widest gap
    decides the class."""
    knots, vals = spec.density._t, spec.density._f
    live = (vals[:-1] > 0.0) | (vals[1:] > 0.0)
    a, b = knots[:-1][live], knots[1:][live]
    if spec.atoms is not None:
        a = np.concatenate([spec.atoms.thetas, a])
        b = np.concatenate([spec.atoms.thetas, b])
    start = canonical_angles(a)
    end = start + (b - a)
    order = np.argsort(start)  # equal starts always merge: their order is moot
    start, reach = start[order], np.maximum.accumulate(end[order])
    first = np.flatnonzero(np.append(True, ~(start[1:] <= reach[:-1] + 1e-12)))
    lo, hi = start[first], reach[np.append(first[1:] - 1, len(start) - 1)]
    if len(lo) >= 2 and lo[0] + TWO_PI <= hi[-1] + 1e-12:
        top = max(hi[0], hi[-1] - TWO_PI)
        j = int(np.searchsorted(lo[:-1], top + 1e-12, side="right"))
        lo = np.append(lo[-1] - TWO_PI, lo[j:-1])
        hi = np.append(max(top, hi[j - 1]), hi[j:-1])
    if len(lo) == 1 and hi[0] - lo[0] >= TWO_PI - 1e-12:
        return MeasureClass(GENERAL_POSITION, TWO_PI)
    gaps = np.append(lo[1:], lo[0] + TWO_PI) - hi
    gmax = float(gaps.max())
    if gmax < math.pi - 1e-12:
        return MeasureClass(GENERAL_POSITION, TWO_PI - gmax)
    kmax = int(np.flatnonzero(gaps == gmax)[-1])  # ties go to the last gap
    width = TWO_PI - gmax
    w = canonical_angle(float(lo[(kmax + 1) % len(lo)]) + width / 2.0)
    return MeasureClass(SEMICIRCLE, width, v=canonical_angle(w + math.pi / 2.0), w=w)


def _symmetric_base_angles(G: SymmetryGroup, l: int, m: int, spec: MeasureSpec,
                           axis: float | None = None):
    """G_m-orbit of a base point avoiding every atom image, G_m being the
    symmetry group of the regular lm-gon with a reflection axis at axis,
    by default G's (0 for a group without one)."""
    if l < 3 or m < 2:
        raise ValueError("need l >= 3 and m >= 2")
    if G.kind in ("cyclic", "dihedral") and l % max(G.order_k, 1) != 0:
        raise NotSymmetricError(f"group order {G.order_k} does not divide l = {l}")
    phi0 = axis if axis is not None else G.axis if G.kind == "dihedral" else 0.0
    lm = l * m
    step = TWO_PI / lm
    atoms = spec.atoms.thetas if spec.atoms is not None else np.array([])
    base = phi0 + math.pi / (2.0 * lm)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for trial in range(1000):
        beta = canonical_angle(base + trial * golden * math.pi / lm)
        # The orbit is beta and 2 phi0 - beta plus multiples of step, so an
        # atom clears it when it clears both modulo step.
        off = np.concatenate([atoms - beta, atoms - (2.0 * phi0 - beta)]) % step
        if np.minimum(off, step - off).min(initial=math.inf) <= 1e-9:
            continue
        pts = np.concatenate(
            [beta + TWO_PI * np.arange(lm) / lm,
             (2.0 * phi0 - beta) + TWO_PI * np.arange(lm) / lm]
        )
        pts = np.sort(pts % TWO_PI)
        return pts[np.concatenate([[True], np.diff(pts) > 1e-12])]
    raise CannotAvoidAtomsError("no subdivision base point clears the atom orbit")


class GridMeasure(DiscreteMeasure):
    """A grid measure from discretize_symmetric, with the orbit structure
    its masses were averaged on, re-indexed to its sorted atoms: equal to
    orbit_partition(thetas, G), or None for the trivial group.  The
    orbits are read off how the grid is built, not matched, and the
    refinement loop hands them to solve_discrete, so no stage matches
    angles."""

    def __init__(self, thetas, masses, orbits: OrbitStructure | None):
        super().__init__(thetas, masses)
        self.orbits = orbits


def _grid_orbits(pts: np.ndarray, mids: np.ndarray, keep: np.ndarray,
                 G: SymmetryGroup) -> OrbitStructure:
    """The G-orbits of the kept arcs between the sorted cut points pts, in
    arc order, arc j running from pts[j] to the next cut point and having
    its midpoint at mids[j].  The n cut points are invariant under the
    symmetry group of their regular lm-gon, which contains G: rotation by
    2 pi / k maps arc j to arc j + n / k, and G's reflection maps arc j to
    arc c - j - 1 (mod n), c being the index of its image of pts[0].  The
    orbit of a representative r < n / k is thus its rotation images and,
    for a dihedral G, those of its mirror arc; each block row lists them
    in increasing order.  One check per generator confirms that it maps
    every midpoint to within ATOM_MERGE_TOL of the midpoint its index map
    names.  Kept arcs that are not a union of orbits raise
    NotSymmetricError naming G."""
    n, k = len(pts), G.order_k
    shift = n // k
    arcs = np.arange(n)
    generators = [] if k == 1 else [(Isometry2("rotation", TWO_PI / k), (arcs + shift) % n)]
    r = arcs[:shift]
    rotations = shift * np.arange(k)
    if G.kind == "dihedral":
        s = Isometry2("reflection", G.axis)
        d = np.abs(pts - s.apply_angle(pts[0]))
        c = int(np.argmin(np.minimum(d, TWO_PI - d)))
        generators.append((s, (c - 1 - arcs) % n))
        q = (c - 1 - r) % shift  # r's mirror arc, up to rotation
        pair = r < q
        rows = np.stack((r[pair], q[pair]), axis=1)[:, None, :] + rotations[:, None]
        blocks = [r[r == q, None] + rotations, rows.reshape(-1, 2 * k)]
    else:
        blocks = [r[:, None] + rotations]
    for A, image in generators:
        d = np.abs(mids[image] - A.apply_angles(mids))
        off = np.minimum(d, TWO_PI - d) > ATOM_MERGE_TOL
        if off.any():
            i = int(np.argmax(off))
            raise NotSymmetricError(
                f"measure is not invariant under {G.label()}: the arc midpoint at "
                f"{mids[i]:.12g} maps to {A.apply_angle(mids[i]):.12g}, "
                f"not to a grid midpoint"
            )
    if keep.all():
        return OrbitStructure(blocks)
    rank = np.cumsum(keep) - 1
    kept = []
    for rows in blocks:
        live = keep[rows]
        split = (live != live[:, :1]).any(axis=1)
        if split.any():
            i = rows[np.argmax(split), 0]
            raise NotSymmetricError(
                f"measure is not invariant under {G.label()}: the orbit of the arc at "
                f"{mids[i]:.12g} carries mass on some of its arcs only"
            )
        if live[:, 0].any():
            kept.append(rank[rows[live[:, 0]]])
    return OrbitStructure(kept)


def discretize_symmetric(spec: MeasureSpec, G: SymmetryGroup, l: int, m: int,
                         axis: float | None = None) -> GridMeasure:
    """Arc-midpoint discretization on a G-symmetric subdivision.

    The circle is cut at the orbit of a base point under the symmetry group
    of a regular lm-gon containing G, with a reflection axis at axis (by
    default G's); each arc's mass lands on its midpoint.  The G-orbits of
    the arcs follow from that construction (_grid_orbits): no angles are
    matched.  Masses are averaged over them, so the output is exactly
    G-invariant.  The averages run over the midpoints in arc order, the
    last of which usually wraps past 2 pi to the front of the sorted atoms.
    """
    pts = _symmetric_base_angles(G, l, m, spec, axis)
    n = len(pts)
    a, b = pts, np.append(pts[1:], pts[0] + TWO_PI)
    mids = canonical_angles(0.5 * (a + b))
    masses = np.zeros(n)
    if spec.atoms is not None:
        # The cut points clear every atom by more than 1e-9, so each atom
        # lies inside one arc; an arc's atoms add up in index order, as a
        # per-arc sum over the atom list adds them.
        arc = (np.searchsorted(pts, spec.atoms.thetas) - 1) % n
        for rows in index_blocks(arc):
            masses[arc[rows[:, 0]]] = np.sum(spec.atoms.masses[rows], axis=1)
    if spec.density is not None:
        masses += spec.density.arc_masses(a, b)
    keep = masses > 0.0
    orb = None if G.is_trivial else _grid_orbits(pts, mids, keep, G)
    mids, masses = mids[keep], masses[keep]
    if orb is not None:
        masses = orb.require_invariant(masses, f"arc masses differ across a {G.label()} orbit")
    order = np.argsort(mids, kind="stable")
    return GridMeasure(mids[order], masses[order], None if orb is None else orb.permuted(order))


def _single_direction_body(w: float, mass: float, p: float) -> Polygon:
    """Dilated triangle solving a one-atom measure: normals w, w +- 2*pi/3."""
    normals = [w, canonical_angle(w + 2.0 * math.pi / 3.0),
               canonical_angle(w - 2.0 * math.pi / 3.0)]
    K0 = polygon_from_support(normals, [1.0, 0.0, 0.0])
    base = lp_surface_measure(K0, p).total_mass()  # single atom at w
    lam = mass / base
    lam0 = lam ** (1.0 / (2.0 - p))
    return dilate(K0, lam0)


def half_group(G: SymmetryGroup, cls: MeasureClass, spec: MeasureSpec) -> SymmetryGroup:
    """The group the half problem enforces for G: the trivial group, or D1
    across lin(cls.w), the one reflection that maps the semicircle and its
    chord to themselves.  G must be one of these, with spec invariant under
    it, else NotSymmetricError.  A reflection across lin(v) is checked on
    spec first, so that the error names the symmetry spec lacks."""
    if G.is_trivial:
        return G
    if G.kind == "dihedral" and G.order_k == 1:
        v, w, axis = cls.v, cls.w, G.axis
        dv = min(circular_distance(axis, v), circular_distance(axis, v + math.pi))
        dw = min(circular_distance(axis, w), circular_distance(axis, w + math.pi))
        if min(dv, dw) <= 1e-9:
            if not _spec_invariant_under(spec, Isometry2("reflection", axis)):
                raise NotSymmetricError(f"measure is not invariant under {G.label()}")
            if dw <= 1e-9:
                return SymmetryGroup.dihedral(1, w)
    raise NotSymmetricError(
        f"symmetry {G.label()} is incompatible with a semicircle-supported measure"
    )


def solve_semicircle(mu: DiscreteMeasure, cls: MeasureClass, p: float,
                     cfg: SolverConfig | None = None, G: SymmetryGroup | None = None):
    """Solve an atomic measure concentrated on a closed semicircle.

    Single direction: a closed-form dilated triangle, symmetric only across
    the atom's own line.  Proper semicircle: the half problem that density
    inputs take too (_solve_reduced).  An antipodal pair admits no solution.
    A group the measure cannot admit raises NotSymmetricError.
    """
    cfg = cfg or SolverConfig()
    G = G or SymmetryGroup.trivial()
    if cls.tag == ANTIPODAL_PAIR:
        raise AntipodalPairError(
            "no body exists: the support is a pair of antipodal directions"
        )
    if cls.tag == SINGLE_DIRECTION:
        if not (G.is_trivial or G.kind == "dihedral" and G.order_k == 1
                and circular_distance(2.0 * G.axis, 2.0 * cls.w) <= 2e-9):
            raise NotSymmetricError(f"symmetry {G.label()} is incompatible with a single atom")
        P = _single_direction_body(cls.w, mu.total_mass(), p)
        return P, SolveReport(residual=measure_residual(P, mu, p),
                              classification=SINGLE_DIRECTION, symmetry=G.label())
    if cls.tag != SEMICIRCLE:
        raise ConcentratedError("solve_semicircle needs a concentrated classification")
    return _solve_reduced(MeasureSpec(mu), cls, p, G, cfg)


def _loop_groups(G: SymmetryGroup) -> int:
    """Base polygon size l for the symmetric subdivision: the smallest l >= 3
    divisible by the group's rotation order."""
    k = max(G.order_k, 1) if not G.is_trivial else 1
    if k >= 3:
        return k
    return {1: 3, 2: 4}[k]


def discretize(spec: MeasureSpec, m: int, G: SymmetryGroup | None = None) -> GridMeasure:
    """The grid measure at resolution m, as the refinement loop solves it:
    the arc-midpoint discretization on 2 l floor(m / l) equal arcs,
    l = _loop_groups(G), for every group including the trivial one (the
    default).  Zero-mass arcs carry no atom."""
    if m < 3:
        raise ValueError("need m >= 3")
    G = G or SymmetryGroup.trivial()
    l = _loop_groups(G)
    return discretize_symmetric(spec, G, l, max(2, m // l))


def _half_grid(spec: MeasureSpec, m: int, H: SymmetryGroup, cls: MeasureClass) -> GridMeasure:
    """The grid measure at resolution m of a measure on the closed semicircle
    about cls.w, for the half problem with the group H of half_group: the
    restriction to that semicircle of the whole circle's grid for H and the
    reflection across lin(v) together (D1 or D2, l = 3 or 4).  That grid is
    aligned with lin(v), so the semicircle's ends v and v - pi are arc
    midpoints: an arc across an end keeps the mass on the semicircle's side
    of it, at the end itself, and zero-mass arcs carry no atom."""
    l = 3 if H.is_trivial else 4
    return discretize_symmetric(spec, H, l, max(2, m // l), cls.v)


def stage_measure(spec: MeasureSpec, m: int, G: SymmetryGroup,
                  cls: MeasureClass) -> GridMeasure:
    """The grid measure the refinement loop solves at resolution m for spec,
    of classification cls, under the group G the loop enforces: for a
    semicircle class _half_grid's, G being half_group's, else
    discretize's.  `lpmink discretize` prints it."""
    if cls.tag == SEMICIRCLE:
        return _half_grid(spec, m, G, cls)
    return discretize(spec, m, G)


def _interpolated_support(P: Polygon, thetas: np.ndarray,
                          chord: float | None = None) -> np.ndarray:
    """Periodic cubic Hermite interpolant of P's support numbers at thetas
    (angles in [0, 2 pi)), the next stage's warm start.  The slope at each
    normal is that of the parabola through it and its two neighbours, on
    the normals' uneven spacing (zero-mass arcs carry no atom); intervals
    wrap at 2 pi.  At one of P's normals it returns that support number
    bit for bit.  The exact support of P would not do: it puts the new
    facets whose normals share one vertex's normal cone through that
    vertex, so their edges start at length zero, outside Newton's
    all-active cone.

    chord, for a half body, is its chord normal: the interpolant is then
    that of the support numbers on the semicircle and their mirror images
    across lin(v), v = chord - pi / 2, the chord's left out.  On the
    semicircle the half body's support function is that of its union with
    its mirror image, which is even about v and v - pi, so the slopes at
    the ends of the semicircle are those of a smooth support, not of the
    corner at the chord."""
    t, h = P.normals, P.support
    if chord is not None:
        keep = t != chord
        t, h = t[keep], h[keep]
        off = np.abs((t - chord) % math.pi - math.pi / 2) > ANGLE_TOL  # not on lin(v)
        t = np.concatenate((t, canonical_angles(2.0 * chord - math.pi - t[off])))
        h = np.concatenate((h, h[off]))
        order = np.argsort(t)
        t, h = t[order], h[order]
    gap = np.diff(t, append=t[0] + TWO_PI)  # gap[k]: from t[k] to t[k + 1]
    sec = np.diff(h, append=h[0]) / gap
    gap0, sec0 = cyclic_shift(gap, 1), cyclic_shift(sec, 1)
    d = (gap0 * sec + gap * sec0) / (gap0 + gap)
    k = np.searchsorted(t, thetas, side="right") - 1  # -1: the seam interval
    k1 = (k + 1) % len(t)
    w = gap[k]
    s = ((thetas - t[k]) % TWO_PI) / w
    return ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * h[k] + s * (1.0 - s) ** 2 * w * d[k]
            + s * s * (3.0 - 2.0 * s) * h[k1] + s * s * (s - 1.0) * w * d[k1])


def _refinement_loop(spec: MeasureSpec, p: float, G: SymmetryGroup,
                     cfg: PipelineConfig, cls: MeasureClass):
    """Solve discretizations of increasing resolution until the bodies
    stabilize.  Every stage solves stage_measure(spec, m, G, cls), whose arc
    midpoints make the body converge at second order in m, and every stage
    after the first starts Newton from the interpolated support of the body
    before it.  Each history entry holds its stage's solver counts; the
    report's top-level counts are the last stage's.  No flat-distance check
    between a body's boundary measure and its discretization is needed: the
    solver's residual gate already bounds it by tol_residual times the total
    mass.  A stage that cannot be solved ends the loop with a
    NoConvergenceError naming its m: the solver's residual gate failed, or
    the grid measure lies in a closed semicircle (zero-mass arcs carry no
    atom, so a support just wider than pi can give one).  A semicircle
    classification cls solves the half problem at every stage instead:
    the stage measure is _half_grid's, and the chord normal opposite the
    semicircle is pinned at support 0."""
    history = []
    prev_P = None
    prev_rep = None
    chord = canonical_angle(cls.w + math.pi) if cls.tag == SEMICIRCLE else None
    m = cfg.m0
    while m <= cfg.m_max:
        mu_m = stage_measure(spec, m, G, cls)
        h0 = None if prev_P is None else _interpolated_support(prev_P, mu_m.thetas, chord)
        try:
            P_m, rep_m = solve_discrete(mu_m, p, G, cfg, h0=h0, orbits=mu_m.orbits,
                                        chord=chord)
        except ConcentratedError as exc:
            raise NoConvergenceError(
                f"stage m = {m}: the grid measure lies in a closed semicircle ({exc})"
            ) from exc
        except NoConvergenceError as exc:
            raise NoConvergenceError(f"stage m = {m}: {exc}", exc.report) from exc
        diam = P_m.diameter()
        entry = {
            "m": int(m),
            "n_atoms": int(mu_m.n),
            "residual": rep_m.residual,
            "diameter": diam,
            "newton_iters": rep_m.newton_iters,
            "outer_iters": rep_m.outer_iters,
        }
        converged = False
        if prev_P is not None:
            sd = support_distance(P_m, prev_P)
            entry["support_delta"] = sd
            converged = sd <= TOL_BODY * max(diam, 1e-300)
        history.append(entry)
        log.debug("stage m = %d: %d atoms, %d Newton steps, %d continuation stages, "
                  "residual %.3e, support_delta %.3e", m, mu_m.n, rep_m.newton_iters,
                  rep_m.outer_iters, rep_m.residual, entry.get("support_delta", math.nan))
        prev_P, prev_rep = P_m, rep_m
        if converged:
            break
        m *= 2
    report = SolveReport(
        residual=prev_rep.residual,
        outer_iters=prev_rep.outer_iters,
        newton_iters=prev_rep.newton_iters,
        classification=GENERAL_POSITION,
        symmetry=G.label(),
        warnings=[] if converged else [NO_CONVERGENCE_WARNING],
        m_final=history[-1]["m"],
        loop_history=history,
    )
    return prev_P, report


def _solve_reduced(spec: MeasureSpec, cls: MeasureClass, p: float, G: SymmetryGroup,
                   cfg: PipelineConfig):
    """The semicircle route: the half problem on spec's own normals and the
    chord normal cls.w + pi, whose support is pinned at 0 (solve_discrete's
    chord), with G enforced as half_group allows; solved once for atoms,
    and at every stage of the refinement loop for a density.  The report
    names G."""
    H = half_group(G, cls, spec)
    if spec.is_purely_atomic():
        K, rep = solve_discrete(spec.atoms, p, H, cfg, chord=canonical_angle(cls.w + math.pi))
    else:
        K, rep = _refinement_loop(spec, p, H, cfg, cls)
    rep.classification = SEMICIRCLE
    rep.symmetry = G.label()
    return K, rep


def solve(spec: MeasureSpec, p: float, G: SymmetryGroup | None = None,
          cfg: PipelineConfig | None = None):
    """Construct a convex body whose Lp surface area measure is the input.

    Classification decides the route; density inputs go through the
    refinement loop with warm starts.  Raises AntipodalPairError for the one
    nonexistence case; a loop that hits m_max returns its best body with a
    no-convergence warning in the report.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    cfg = cfg or PipelineConfig()
    G = G or SymmetryGroup.trivial()
    cls = classify_spec(spec)
    if cls.tag == ANTIPODAL_PAIR:
        raise AntipodalPairError(
            "no body exists: the support is a pair of antipodal directions"
        )
    if spec.is_purely_atomic():
        if cls.tag in (SINGLE_DIRECTION, SEMICIRCLE):
            return solve_semicircle(spec.atoms, cls, p, cfg, G)
        return solve_discrete(spec.atoms, p, G, cfg)

    if cls.tag == SEMICIRCLE:
        return _solve_reduced(spec, cls, p, G, cfg)

    P, rep = _refinement_loop(spec, p, G, cfg, cls)
    rep.classification = cls.tag
    return P, rep


def _spec_invariant_under(spec: MeasureSpec, A: Isometry2, tol: float = 1e-9) -> bool:
    if spec.atoms is not None:
        mu = spec.atoms
        try:  # atom j[i] is the one the image of atom i lies within tol of
            j = group_orbit_maps(mu.thetas, [A], tol)[0]
        except NotClosedUnderGroupError:
            return False
        if np.max(np.abs(mu.masses[j] - mu.masses)) > tol * max(1.0, mu.masses.max()):
            return False
    if spec.density is not None:
        d = spec.density
        probe = np.sort(np.unique(np.concatenate([d.knots, A.apply_angles(d.knots)])))
        back = A.inverse().apply_angles(probe)
        if np.max(np.abs(d.eval(probe) - d.eval(back))) > tol * max(1.0, d.values.max()):
            return False
    return True


def detect_symmetry(spec: MeasureSpec, max_order: int = 64) -> SymmetryGroup:
    """Largest cyclic/dihedral invariance group of the measure (brute probe
    over candidate rotation orders and reflection axes)."""
    best_k = 1
    for k in range(2, max_order + 1):
        if _spec_invariant_under(spec, Isometry2("rotation", TWO_PI / k)):
            best_k = max(best_k, k)
    axis = None
    candidates = set()
    if spec.atoms is not None:
        t = spec.atoms.thetas
        for i in range(len(t)):
            for j in range(i, len(t)):
                candidates.add(canonical_angle((t[i] + t[j]) / 2.0) % math.pi)
    if spec.density is not None:
        # an axis of a symmetric knot set passes through a knot or halfway
        # between two neighbours, the pair across the seam included
        k = spec.density.knots
        mids = 0.5 * (k + np.append(k[1:], k[0] + TWO_PI))
        for a in np.concatenate((k, k + math.pi / 2.0, mids)):
            candidates.add(canonical_angle(a) % math.pi)
    for a in sorted(candidates):
        if _spec_invariant_under(spec, Isometry2("reflection", a)):
            axis = a
            break
    if axis is not None:
        return SymmetryGroup.dihedral(best_k, axis)
    if best_k > 1:
        return SymmetryGroup.cyclic(best_k)
    return SymmetryGroup.trivial()


def _second_differences(h: np.ndarray, step: float) -> np.ndarray:
    return (cyclic_shift(h, -1) - 2.0 * h + cyclic_shift(h, 1)) / (step * step)


def ma_residual_from_samples(h: np.ndarray, f: np.ndarray, p: float):
    """max |h^(1-p) (h'' + h) - 2 f| / max(2 f, eps) on the periodic grid,
    excluding the cells within two points of a second-difference spike, one
    above 10 times the median (a support-function kink)."""
    n = len(h)
    step = TWO_PI / n
    d2 = _second_differences(h, step)
    absd2 = np.abs(d2)
    med = float(np.median(absd2))
    spikes = absd2 > 10.0 * max(med, 1e-300)
    mask = np.zeros(n, dtype=bool)
    for off in range(-2, 3):
        mask |= cyclic_shift(spikes, off)
    resid = np.abs(h ** (1.0 - p) * (d2 + h) - 2.0 * f) / np.maximum(2.0 * f, 1e-12)
    if mask.all():
        return float(resid.max()), mask
    return float(resid[~mask].max()), mask


def monge_ampere_residual(P: Polygon, spec: MeasureSpec, p: float) -> float | None:
    """Pointwise residual of the planar support ODE away from corners, on
    max(64, P.n // 16) equally spaced angles.

    The classical equation reads h^(1-p)(h'' + h) = 2f; since the boundary
    length element is (h'' + h) dtheta, the right side 2f equals the
    measure's arc-length density, so the spec's density is passed as 2f.
    Returns None (not applicable) unless at least 90% of the input mass is
    density: the classical equation is meaningless against atoms.
    """
    if spec.density_mass() < 0.9 * spec.total_mass():
        return None
    grid = max(64, P.n // 16)
    t = TWO_PI * np.arange(grid) / grid
    h = P.support_values(t)
    f = spec.density.eval(t) / 2.0
    value, _ = ma_residual_from_samples(h, f, p)
    return value
