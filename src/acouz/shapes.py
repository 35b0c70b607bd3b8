"""Stock boundary geometries used by tests and the experiment runner."""

from __future__ import annotations

import numpy as np

from .boundary import BoundaryGeometry, GeometryError, midpoint_subdivide


def regular_polygon_geometry(n_sides, circumradius=1.0):
    """A regular n-gon polyline; with many sides, the stock circle.

    The polyline perimeter is the exact boundary measure used downstream;
    for spectral purposes only the total length matters.
    """
    th = 2 * np.pi * np.arange(n_sides) / n_sides
    pts = circumradius * np.column_stack([np.cos(th), np.sin(th)])
    return BoundaryGeometry(dim_ambient=2, components=(pts,))


def scaled_circle_by_perimeter(perimeter, n_segments=256):
    """Circle-shaped polyline whose *polyline* length equals ``perimeter``."""
    # a regular n-gon of circumradius R has perimeter 2 n R sin(pi/n)
    R = perimeter / (2 * n_segments * np.sin(np.pi / n_segments))
    return regular_polygon_geometry(n_segments, circumradius=R)


# ---------------------------------------------------------------------------
# triangulated spheres
# ---------------------------------------------------------------------------

def icosphere(subdivisions=3, radius=1.0, center=(0.0, 0.0, 0.0)):
    """Icosahedron subdivided ``subdivisions`` times, projected to a sphere.

    Vertex counts: 12, 42, 162, 642, 2562, 10242, ... per level.
    """
    if subdivisions < 0:
        raise GeometryError(f"subdivisions must be >= 0, not {subdivisions}")
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    t = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=int)

    for _ in range(subdivisions):
        v, t, _ = midpoint_subdivide(v, t)
        v /= np.linalg.norm(v, axis=1, keepdims=True)

    v = v * radius + np.asarray(center)
    return BoundaryGeometry(dim_ambient=3, vertices=v, triangles=t)
