"""Seeded input generators for the four benchmark workloads.

Every case is a measure document in the `lpmink solve --input` format plus
the exponent p and a `--symmetry` spec.  Density cases also carry the exact
support function they were manufactured from, so the benchmark can measure
the true error of the returned body.  Validity rules, checked on every
generated case:

* atomic measures are in general position: the largest circular gap is below
  pi - GAP_MARGIN and no two atoms are closer than MIN_GAP_FRACTION of the
  mean spacing (so none merge);
* a manufactured density is h^(1-p) (h'' + h) for a trigonometric support
  function h with h > 0 and h'' + h >= CURVATURE_FLOOR everywhere, except the
  clean semicircle density, whose h'' + h vanishes only at the two ends of its
  supporting semicircle;
* the clean semicircle density is exactly 0.0 at every knot outside the open
  supporting arc, including both arc ends;
* knot counts of a C_k or D_k symmetric density are multiples of 2k, with the
  grid anchored on the dihedral axis, so the sampled density is invariant.

The noisy max(sin t, 0) case and the hard stress corpus are kept as drawn:
their failures are known defects and must show in the failure counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
GAP_MARGIN = 0.05
MIN_GAP_FRACTION = 0.01
CURVATURE_FLOOR = 0.25
DENSITY_KNOTS = 4096
P_LOOP = (0.3, 0.5, 0.7)


@dataclass
class Case:
    """One input of a workload, as the CLI would receive it."""

    label: str
    p: float
    measure_json: str
    symmetry: str = "none"
    exact_support: Callable[[np.ndarray], np.ndarray] | None = None
    ode_check: bool = False  # density bounded away from 0: the ODE residual applies


@dataclass
class Fourier:
    """h(t) = a0 + sum_k a_k cos(k t + phi_k) and its radius of curvature."""

    a0: float
    ks: tuple
    amps: tuple
    phases: tuple

    def h(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.a0)
        for k, a, ph in zip(self.ks, self.amps, self.phases):
            out += a * np.cos(k * t + ph)
        return out

    def curvature_radius(self, t):
        """h'' + h."""
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.a0)
        for k, a, ph in zip(self.ks, self.amps, self.phases):
            out += a * (1.0 - k * k) * np.cos(k * t + ph)
        return out


def density_doc(knots: np.ndarray, f: np.ndarray) -> str:
    return json.dumps({"atoms": [], "density": {"theta": knots.tolist(), "f": f.tolist()}})


def atoms_doc(thetas: np.ndarray, masses: np.ndarray) -> str:
    atoms = [{"theta": float(t), "mass": float(m)} for t, m in zip(thetas, masses)]
    return json.dumps({"atoms": atoms, "density": None})


def manufactured_density(F: Fourier, p: float, knots: np.ndarray) -> Case:
    """Density h^(1-p) (h'' + h) of a smooth body, sampled at the knots."""
    fine = np.linspace(0.0, TWO_PI, 8192, endpoint=False)
    if F.h(fine).min() <= 0.0 or F.curvature_radius(fine).min() < CURVATURE_FLOOR:
        raise ValueError("manufactured support violates h > 0, h'' + h >= floor")
    f = F.h(knots) ** (1.0 - p) * F.curvature_radius(knots)
    return Case(f"density p={p}", p, density_doc(knots % TWO_PI, f),
                exact_support=F.h, ode_check=True)


def general_position_angles(rng, n: int) -> np.ndarray:
    """Uniform angles, redrawn until they satisfy the general-position rule."""
    while True:
        t = np.sort(rng.uniform(0.0, TWO_PI, n))
        gaps = np.diff(np.append(t, t[0] + TWO_PI))
        if gaps.max() < math.pi - GAP_MARGIN and gaps.min() > MIN_GAP_FRACTION * TWO_PI / n:
            return t


def density_loop(rng) -> list[Case]:
    """One density per run: h = 1 + 0.05 cos(2t + phi2) + 0.02 cos(5t + phi5)
    (so h'' + h >= 0.37) at a loop exponent p; the seed draws p and the
    phases.  An op takes about 2 s, so one case is what lets a run repeat it
    often enough for a steady time; the three exponents are covered
    across seeds."""
    knots = TWO_PI * np.arange(DENSITY_KNOTS) / DENSITY_KNOTS
    p = P_LOOP[int(rng.integers(len(P_LOOP)))]
    F = Fourier(1.0, (2, 5), (0.05, 0.02), tuple(rng.uniform(0.0, TWO_PI, 2)))
    return [manufactured_density(F, p, knots)]


def jittered_atoms(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid angles 2 pi j/n moved by U(-0.3, 0.3) of the spacing; masses
    exp(U(-1, 1)).  Uniform angles are not used: at n = 8192 they leave gaps
    near 1e-7 that the solver cannot resolve."""
    step = TWO_PI / n
    t = step * np.arange(n) + rng.uniform(-0.3, 0.3, n) * step
    return t % TWO_PI, np.exp(rng.uniform(-1.0, 1.0, n))


def atomic_large(rng) -> list[Case]:
    cases = []
    for n in (1024, 4096, 8192):
        for p in P_LOOP:
            t, m = jittered_atoms(rng, n)
            cases.append(Case(f"atoms n={n} p={p}", p, atoms_doc(t, m)))
    return cases


STRESS_BASE_SEED = 0
STRESS_SIZE = 120


def _stress_measures(rng, size: int):
    """(n, p, C, angles, masses) with n in [3, 60], p in {0.05, ..., 0.95} and
    masses log-uniform in [1, C], C log-uniform in [1, 1e5], both ends pinned
    by an atom."""
    ps = np.round(np.arange(1, 20) * 0.05, 2)
    out = []
    for _ in range(size):
        n = int(rng.integers(3, 61))
        p = float(rng.choice(ps))
        C = 10.0 ** rng.uniform(0.0, 5.0)
        masses = 10.0 ** rng.uniform(0.0, math.log10(C), n)
        masses[0], masses[-1] = 1.0, C
        rng.shuffle(masses)
        out.append((n, p, C, general_position_angles(rng, n), masses))
    return out


def stress_corpus(rng) -> list[Case]:
    """Hard-contrast small atomic measures.

    About 1% of such measures end in the solver's give-up path, which costs
    seconds where a solved one costs milliseconds, so a corpus drawn afresh
    per seed would make throughput a count of give-ups.  The give-up path is
    also chaotic in the input's rounding: rotating the one give-up case of
    this corpus moved its time from 10 s to 0.3 s.  So the corpus is drawn
    once from STRESS_BASE_SEED, and the workload seed only relabels it: a
    power-of-two mass scale, which the solver's mass normalization undoes
    bit for bit, an atom order and a case order.
    """
    scale = 2.0 ** int(rng.integers(-8, 9))
    cases = []
    for n, p, C, t, m in _stress_measures(np.random.default_rng(STRESS_BASE_SEED), STRESS_SIZE):
        perm = rng.permutation(n)
        doc = atoms_doc(t[perm], (scale * m)[perm])
        cases.append(Case(f"stress n={n} p={p} C={C:.3g}", p, doc))
    return [cases[i] for i in rng.permutation(len(cases))]


def _half_body_support(F: Fourier, psi: float):
    """Support function of the half body {x in K2 : <x, n> >= 0}, where K2
    has support F.h(t - psi) (even, so K2 is symmetric across the line at
    angle psi) and n = (cos(psi + pi/2), sin(psi + pi/2)).  On the arc
    [psi, psi + pi] it is h; on the other half it is the support of the cut
    chord, whose ends sit at distances h(0) and h(pi) from the origin."""
    right, left = float(F.h(0.0)), float(F.h(math.pi))

    def exact(t):
        s = (np.asarray(t, dtype=float) - psi) % TWO_PI
        cut = np.maximum(right * np.cos(s), -left * np.cos(s))
        return np.where(s <= math.pi, F.h(s), cut)

    return exact


def semicircle_density(p: float, psi: float, knots: int = 2048) -> Case:
    """Clean semicircle input: g = h'' + h = sin^2 s (2 + cos 2s / 4) on the
    arc s in (0, pi) (s = t - psi), exactly 0 elsewhere.  Its reflect-double
    is the density of the even body h, so the half body is the exact answer."""
    A, B = 2.0, 0.25
    # particular solution of h'' + h = (A/2 - B/4) + (B - A)/2 cos 2s - B/4 cos 4s
    F = Fourier(A / 2 - B / 4, (2, 4), (-(B - A) / 6, B / 60), (0.0, 0.0))
    s = TWO_PI * np.arange(knots) / knots
    g = np.sin(s) ** 2 * (A + B * np.cos(2 * s))
    f = F.h(s) ** (1.0 - p) * g
    f[knots // 2:] = 0.0
    f[0] = 0.0
    case = Case(f"semicircle density p={p}", p, density_doc((s + psi) % TWO_PI, f))
    case.exact_support = _half_body_support(F, psi)
    return case


def symmetric_density(rng, k: int, dihedral: bool, p: float, knots: int) -> Case:
    """h = 1 + a cos(k s) + b cos(2k s), s = t - psi: invariant under C_k, and
    under D_k with axis psi.  knots must be a multiple of 2k.  The seed
    draws psi only: the amplitudes fix how hard the case is."""
    if knots % (2 * k):
        raise ValueError("knot count must be a multiple of 2k")
    psi = float(rng.uniform(0.0, TWO_PI / k))
    a = 0.3 / (k * k - 1)
    b = 0.15 / (4 * k * k - 1)
    F = Fourier(1.0, (k, 2 * k), (a, b), (-k * psi, -2 * k * psi))
    case = manufactured_density(F, p, psi + TWO_PI * np.arange(knots) / knots)
    axis = psi % math.pi
    case.symmetry = f"D{k}:{axis!r}" if dihedral else f"C{k}"
    case.label = f"{case.symmetry.split(':')[0]} density p={p}"
    return case


def noisy_half_sine(knots: int = 1024) -> Case:
    """max(sin t, 0) sampled on a grid: sin(pi) evaluates to 1.2e-16, so the
    input is not exactly semicircle-supported (a known defect).  The same
    input for every seed: its give-up path takes seconds, and a rotated grid
    changes how long."""
    t = TWO_PI * np.arange(knots) / knots
    return Case("max(sin t, 0)", 0.5, density_doc(t, np.maximum(np.sin(t), 0.0)))


def semicircle_atoms(rng, p: float, psi: float, n: int = 24) -> Case:
    """Atoms on the open arc (psi, psi + pi), in general position within it."""
    while True:
        s = np.sort(rng.uniform(0.02, math.pi - 0.02, n))
        if np.diff(s).min() > MIN_GAP_FRACTION * math.pi / n:
            break
    m = np.exp(rng.uniform(-1.0, 1.0, n))
    return Case(f"semicircle atoms p={p}", p, atoms_doc((s + psi) % TWO_PI, m))


def reduced_routes(rng) -> list[Case]:
    psi = float(rng.uniform(0.0, TWO_PI))
    return [
        semicircle_density(0.5, psi),
        semicircle_atoms(rng, 0.4, float(rng.uniform(0.0, TWO_PI))),
        symmetric_density(rng, 4, False, 0.5, 4096),
        symmetric_density(rng, 5, True, 0.5, 4000),
        noisy_half_sine(),
    ]


WORKLOADS = {
    "density-loop": density_loop,
    "atomic-large": atomic_large,
    "stress-corpus": stress_corpus,
    "reduced-routes": reduced_routes,
}


def generate(workload: str, seed: int) -> list[Case]:
    """The workload's cases; the same seed gives the same cases."""
    return WORKLOADS[workload](np.random.default_rng(seed))
