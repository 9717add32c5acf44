"""Static SVG rendering: body outline, origin marker, atom mass rays."""

from __future__ import annotations

import numpy as np

from .geometry import Polygon, unit_vectors
from .measure import DiscreteMeasure


def render_svg(P: Polygon, mu: DiscreteMeasure) -> str:
    """A 480-pixel square plot of P's outline, the origin and one ray per
    atom of mu, its length proportional to the atom's mass."""
    verts = P.vertices
    extent = max(1e-9, float(np.abs(verts).max()) * 1.15)
    scale = 480 / (2.0 * extent)

    def to_px(xy):
        return (240.0 + xy[0] * scale, 240.0 - xy[1] * scale)

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="480" height="480" viewBox="0 0 480 480">',
        '<rect width="480" height="480" fill="white"/>',
    ]
    pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in (to_px(v) for v in verts))
    lines.append(
        f'<polygon points="{pts}" fill="#dce9f7" stroke="#27567b" stroke-width="1.5"/>'
    )
    ox, oy = to_px((0.0, 0.0))
    u = unit_vectors(mu.thetas)
    rays = mu.masses / mu.masses.max() * extent * 0.85
    for k in range(mu.n):
        x2, y2 = to_px(u[k] * rays[k])
        lines.append(
            f'<line x1="{ox:.3f}" y1="{oy:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
            f'stroke="#b6402f" stroke-width="1.0"/>'
        )
    lines.append(f'<circle cx="{ox:.3f}" cy="{oy:.3f}" r="3" fill="#222"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def save_svg(path, P: Polygon, mu: DiscreteMeasure):
    with open(path, "w") as fh:
        fh.write(render_svg(P, mu))
