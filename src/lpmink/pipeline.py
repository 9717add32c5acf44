"""End-to-end solves for general measures on the circle.

Routes by support classification: general position goes through the discrete
solver, measures on a closed semicircle through the half problem, whose body
has the chord normal opposite the semicircle with support 0, and a pair of
antipodal atoms is the one nonexistence case.  Each decision has one home:
`solve_semicircle` the semicircle route of atoms and `_refinement_loop`
that of densities, `discretize` the grid measure of the whole circle and
its `l` rule (the density's arc masses at the arc midpoints with the atoms
unmoved; the refinement loop's stages, `verify` and the `--svg` rays all
use it), `stage_measure` the group whose grid a stage takes, the caller's
or, on a semicircle, D1 or D2 at the semicircle's end (the loop's stages
and `lpmink discretize`), both only binning.
`solve_discrete` holds a group's invariance test and orbit means, once
each, and, given a chord, reduces the caller's group to the half
problem's (`half_group`), while its report, solved or not, names the
caller's.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AntipodalPairError,
    ConcentratedError,
    NoConvergenceError,
    NotSymmetricError,
)
from .geometry import (
    ANGLE_TOL,
    TWO_PI,
    Polygon,
    SymmetryGroup,
    canonical_angle,
    canonical_angles,
    circular_distances,
    circular_gaps,
    cyclic_shift,
    dilate,
    polygon_from_support,
    support_distance,
)
from .measure import (
    ANTIPODAL_PAIR,
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
    SolveReport,
    SolverConfig,
    half_group,
    invariant_orbits,
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
        for name in ("m0", "m_max"):  # numpy integers too, stored as int
            try:
                setattr(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
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
    t, f = spec.density.knots, spec.density.values
    knots, vals = np.append(t, t[0] + TWO_PI), np.append(f, f[0])
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


def _symmetric_base_angles(G: SymmetryGroup, l: int, m: int):
    """Cut points of the symmetric grid: the orbit of phi0 + pi / (2 lm)
    under G_m, the symmetry group of the regular lm-gon with a reflection
    axis at phi0, G's axis (0 for a group without one).  The arcs'
    midpoints are phi0 + j pi / lm.  G_m contains G when k divides l, else
    the grid is at fault."""
    if l < 3 or m < 2:
        raise ValueError("need l >= 3 and m >= 2")
    if G.kind in ("cyclic", "dihedral") and l % max(G.order_k, 1) != 0:
        raise NotSymmetricError(f"group order {G.order_k} does not divide l = {l}")
    phi0 = G.axis if G.kind == "dihedral" else 0.0
    lm = l * m
    beta = canonical_angle(phi0 + math.pi / (2.0 * lm))
    pts = np.concatenate(
        [beta + TWO_PI * np.arange(lm) / lm,
         (2.0 * phi0 - beta) + TWO_PI * np.arange(lm) / lm]
    )
    return np.sort(pts % TWO_PI)


def discretize_symmetric(spec: MeasureSpec, G: SymmetryGroup, l: int, m: int) -> DiscreteMeasure:
    """Arc-midpoint discretization of the density on a G-symmetric
    subdivision, with the atoms unmoved.

    The circle is cut at the orbit of a base point under the symmetry group
    of a regular lm-gon containing G, with a reflection axis at G's; each
    arc's density mass lands on its midpoint.  The atoms join as they are:
    DiscreteMeasure drops the zero-mass arcs, sorts, and merges an atom
    within ATOM_MERGE_TOL of a midpoint into it.  G shapes only the grid:
    the masses are binned, and solve_discrete tests their invariance and
    averages them.
    """
    pts = _symmetric_base_angles(G, l, m)
    a, b = pts, np.append(pts[1:], pts[0] + TWO_PI)
    mids = canonical_angles(0.5 * (a + b))
    masses = np.zeros(len(pts)) if spec.density is None else spec.density.arc_masses(a, b)
    if spec.atoms is not None:
        mids = np.concatenate((mids, spec.atoms.thetas))
        masses = np.concatenate((masses, spec.atoms.masses))
    return DiscreteMeasure(mids, masses)


def _single_direction_body(w: float, mass: float, p: float) -> Polygon:
    """Dilated triangle solving a one-atom measure: normals w, w +- 2*pi/3."""
    normals = [w, canonical_angle(w + 2.0 * math.pi / 3.0),
               canonical_angle(w - 2.0 * math.pi / 3.0)]
    K0 = polygon_from_support(normals, [1.0, 0.0, 0.0])
    base = lp_surface_measure(K0, p).total_mass()  # single atom at w
    lam = mass / base
    lam0 = lam ** (1.0 / (2.0 - p))
    return dilate(K0, lam0)


def solve_semicircle(mu: DiscreteMeasure, cls: MeasureClass, p: float,
                     cfg: SolverConfig | None = None, G: SymmetryGroup | None = None):
    """Solve an atomic measure concentrated on a closed semicircle.

    Single direction: a closed-form dilated triangle, symmetric only across
    the atom's own line (half_group).  Proper semicircle: solve_discrete's
    half problem on mu's own normals and the chord normal cls.w + pi, whose
    support is pinned at 0, with G enforced as half_group allows; density
    inputs take the same half problem at every stage of the refinement
    loop.  Every report names G.  An antipodal pair admits no solution.  A
    group the measure cannot admit raises NotSymmetricError.
    """
    G = G or SymmetryGroup.trivial()
    if cls.tag == ANTIPODAL_PAIR:
        raise AntipodalPairError(
            "no body exists: the support is a pair of antipodal directions"
        )
    if cls.tag == SINGLE_DIRECTION:
        half_group(G, cls.w)
        P = _single_direction_body(cls.w, mu.total_mass(), p)
        return P, SolveReport(residual=measure_residual(P, mu, p),
                              classification=SINGLE_DIRECTION, symmetry=G.label())
    if cls.tag != SEMICIRCLE:
        raise ConcentratedError("solve_semicircle needs a concentrated classification")
    return solve_discrete(mu, p, G, cfg, chord=canonical_angle(cls.w + math.pi))


def discretize(spec: MeasureSpec, m: int, G: SymmetryGroup | None = None) -> DiscreteMeasure:
    """The grid measure at resolution m, as the refinement loop solves it:
    the density's arc-midpoint discretization on 2 l max(2, floor(m / l))
    equal arcs, for every group including the trivial one (the default)
    and a semicircle's D1 or D2 (stage_measure), with the atoms unmoved.
    l is the smallest l >= 3 that G's rotation order k divides: k when
    k >= 3, else k + 2.  Zero-mass arcs carry no atom.  m < 3 raises
    ValueError."""
    if m < 3:
        raise ValueError("need m >= 3")
    G = G or SymmetryGroup.trivial()
    k = G.order_k
    l = k if k >= 3 else k + 2
    return discretize_symmetric(spec, G, l, max(2, m // l))


def check_group_order(G: SymmetryGroup, m_max: int) -> None:
    """Refuse a group whose grids outgrow m_max: discretize cuts at least
    4 k arcs under rotation order k >= 3, whatever m is, so k above m_max
    raises ValueError naming G and the limit.  With k <= m_max every grid
    has at most 4 m_max arcs."""
    if G.order_k > m_max:
        raise ValueError(f"symmetry {G.label()}: rotation order {G.order_k} is above "
                         f"m_max = {m_max}, the largest grid resolution")


def stage_measure(spec: MeasureSpec, m: int, G: SymmetryGroup,
                  cls: MeasureClass) -> DiscreteMeasure:
    """The grid measure the refinement loop solves at resolution m for spec,
    of classification cls, under the caller's group G: discretize's, under
    G off a semicircle.  On the closed semicircle about cls.w it is the
    half grid, discretize's under the reflection across lin(v), v = cls.v,
    together with H = half_group(G, cls.w): D1 at v when H is trivial, else
    D2 at v.  That grid is aligned with lin(v), so the semicircle's ends v
    and v - pi are arc midpoints: an arc across an end keeps the density
    mass on the semicircle's side of it, at the end itself, and the
    zero-mass arcs off the semicircle carry no atom.  `lpmink discretize`
    prints it."""
    if cls.tag != SEMICIRCLE:
        return discretize(spec, m, G)
    k = 1 if half_group(G, cls.w).is_trivial else 2
    return discretize(spec, m, SymmetryGroup.dihedral(k, cls.v))


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
    classification cls solves the half problem at every stage instead: the
    stage measure is the half grid, and solve_discrete pins the chord normal
    opposite the semicircle at support 0 and enforces half_group's part of
    G.  The report, the last stage's with the loop's warnings, m_final and
    history, names cls's class and G, as does a failed stage's.  m
    doubles from m0 up to m_max, and a stage whose grid is the one solved
    before is skipped (the grid of 2 l max(2, floor(m / l)) arcs stays put
    while m < 3 l), so the stopping rule never compares a body with itself."""
    history = []
    prev_P = None
    prev_thetas = None
    converged = False
    chord = canonical_angle(cls.w + math.pi) if cls.tag == SEMICIRCLE else None
    for m in (cfg.m0 << i for i in range((cfg.m_max // cfg.m0).bit_length())):
        mu_m = stage_measure(spec, m, G, cls)
        if prev_thetas is not None and np.array_equal(mu_m.thetas, prev_thetas):
            continue  # the grid of the stage before: its body would compare with itself
        prev_thetas = mu_m.thetas
        h0 = None if prev_P is None else _interpolated_support(prev_P, mu_m.thetas, chord)
        try:
            P_m, rep_m = solve_discrete(mu_m, p, G, cfg, h0=h0, chord=chord)
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
        if prev_P is not None:
            sd = support_distance(P_m, prev_P)
            entry["support_delta"] = sd
            converged = sd <= TOL_BODY * max(diam, 1e-300)
        history.append(entry)
        log.debug("stage m = %d: %d atoms, %d Newton steps, %d continuation stages, "
                  "residual %.3e, support_delta %.3e", m, mu_m.n, rep_m.newton_iters,
                  rep_m.outer_iters, rep_m.residual, entry.get("support_delta", math.nan))
        prev_P = P_m
        if converged:
            break
    return prev_P, replace(
        rep_m, warnings=[] if converged else [NO_CONVERGENCE_WARNING],
        m_final=history[-1]["m"], loop_history=history)


def solve(spec: MeasureSpec, p: float, G: SymmetryGroup | None = None,
          cfg: PipelineConfig | None = None):
    """Construct a convex body whose Lp surface area measure is the input.

    Classification decides the route, once: atoms not in general position
    go to solve_semicircle, which raises AntipodalPairError for the one
    nonexistence case; density inputs go through the refinement loop with
    warm starts, and a loop that hits m_max returns its best body with a
    no-convergence warning in the report.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    cfg = cfg or PipelineConfig()
    G = G or SymmetryGroup.trivial()
    cls = classify_spec(spec)
    if spec.is_purely_atomic():
        if cls.tag != GENERAL_POSITION:
            return solve_semicircle(spec.atoms, cls, p, cfg, G)
        return solve_discrete(spec.atoms, p, G, cfg)
    check_group_order(G, cfg.m_max)
    return _refinement_loop(spec, p, G, cfg, cls)


def _invariant(sets: list, G: SymmetryGroup) -> bool:
    """Does G map each point set to itself with values constant on its
    orbits, by solve_discrete's test (invariant_orbits)?"""
    try:
        for t, f in sets:
            invariant_orbits(t, f, G)
    except NotSymmetricError:
        return False
    return True


def detect_symmetry(spec: MeasureSpec) -> SymmetryGroup:
    """Largest cyclic or dihedral group spec is invariant under, by the
    solver's own tests (_invariant), so the solver never refuses the group
    found.  The point sets the group must map to themselves are the atoms
    with their masses and the density's knots with its values, less the
    knots inside a run of equal values: they carry no shape, and a constant
    density constrains nothing.  The rotation order of an invariant set
    divides its size: the candidates are the divisors of the sizes' gcd,
    largest first, and the first that passes is k.  A reflection of the
    first set t (n points) that keeps C_k maps t[0] to some t[j], j < n / k,
    across the line at (t[0] + t[j]) / 2, and so t[i] to t[j - i]; only the
    j whose pairs (t[i], t[j - i]) match in angle and value, to 1e-7
    (looser than the tests, so no group is lost), are tested.  The i are
    the first eight points, the points of largest and smallest value and
    the starts of the widest and narrowest gap; on a near-symmetric input
    the last four single out the odd point.  The axis reported is the least
    of the group's k axes in [0, pi)."""
    sets = [] if spec.atoms is None else [(spec.atoms.thetas, spec.atoms.masses)]
    if spec.density is not None:
        t, f = spec.density.knots, spec.density.values
        shape = (f != cyclic_shift(f, 1)) | (f != cyclic_shift(f, -1))
        if shape.any():
            sets.append((t[shape], f[shape]))
    if not sets:
        return SymmetryGroup.trivial()
    g = math.gcd(*(len(t) for t, _ in sets))
    k = next(d for d in range(g, 0, -1)
             if g % d == 0 and (d == 1 or _invariant(sets, SymmetryGroup.cyclic(d))))
    t, f = sets[0]
    n = len(t)
    s = n // k
    gaps = circular_gaps(t)
    i = np.append(np.arange(min(n, 8)),
                  [np.argmax(f), np.argmin(f), np.argmax(gaps), np.argmin(gaps)])[:, None]
    j = np.arange(s)
    fit = (circular_distances(t[0] + t[j], t[i] + t[j - i]) <= 1e-7) & (
        np.abs(f[j - i] - f[i]) <= 1e-7 * np.maximum(f[j - i], f[i]))
    for c in j[fit.all(axis=0)]:
        axes = canonical_angles(0.5 * (t[0] + t[(c + s * np.arange(k)) % n])) % math.pi
        G = SymmetryGroup.dihedral(k, float(axes.min()))
        if _invariant(sets, G):
            return G
    return SymmetryGroup.cyclic(k)


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
