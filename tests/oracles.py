"""Test-only oracles: the curve midpoint grid and what is computed on it,
single modes and point masses as coefficient vectors, geometries that only
tests build, the surface checks edge by edge, and the P1 element written
the long way.

The package computes every curve quantity exactly from the mode
descriptors (component, kind, frequency) and stores no grid; these grid
versions are the independent references the tests compare against.  It
also writes each P1 formula once for surfaces and domains; the cotangent,
gradient and dict-keyed midpoint forms here are the references for those.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from acouz import acoustic as ac
from acouz import boundary as bd
from acouz import shapes
from acouz.multipliers import hermitian_check

# Orthonormality tolerances: curve modes are exact up to quadrature, FEM
# surface modes carry solver error.
TOL_ORTH_CURVE = 1e-10
TOL_ORTH_SURFACE = 1e-8


def curve_mode_values(spec, comp, s):
    """All modes of a curve spectrum at arclengths ``s`` on component
    ``comp``: an (N, len(s)) array, zero on modes of other components."""
    return bd.curve_modes(spec.mode_comp, spec.mode_kind, spec.mode_freq, comp,
                          spec.geometry.component_lengths()[comp],
                          np.asarray(s, dtype=float))


@dataclass(frozen=True)
class CurveGrid:
    """Midpoint arclength grid of a curve spectrum with the modes on it."""

    arclength: np.ndarray    # (n_grid,)
    weights: np.ndarray      # (n_grid,)
    modes: np.ndarray        # (N, n_grid)

    def coeffs(self, values):
        """L2 projection of grid values onto the modes."""
        return self.modes @ (self.weights * np.asarray(values))

    def values(self, coeffs):
        """The function with these (leading) coefficients on the grid."""
        c = np.asarray(coeffs)
        return c @ self.modes[:c.size]


def curve_grid(spec):
    """M = 4 k_max + 16 midpoints per component, k_max its largest stored
    frequency: the rule integrates trigonometric polynomials of degree below
    M exactly, so triple products of retained modes carry no error."""
    lengths = spec.geometry.component_lengths()
    s, w, comp = [], [], []
    for j, L in enumerate(lengths):
        freqs = spec.mode_freq[spec.mode_comp == j]
        M = 4 * max(int(freqs.max(initial=0)), 1) + 16
        s.append((np.arange(M) + 0.5) * (L / M))
        w.append(np.full(M, L / M))
        comp.append(np.full(M, j))
    s, w, comp = (np.concatenate(a) for a in (s, w, comp))
    modes = np.zeros((spec.count, s.size))
    for j in range(lengths.size):
        on = comp == j
        modes[:, on] = curve_mode_values(spec, j, s[on])
    return CurveGrid(arclength=s, weights=w, modes=modes)


def gram_defect(spec):
    """Max deviation of the modes' Gram matrix from the identity: on the
    curve grid, or in the lumped vertex mass for a surface spectrum."""
    if spec.mode_comp is not None:
        grid = curve_grid(spec)
        Y, w = grid.modes, grid.weights
    else:
        geom = spec.geometry
        Y = spec.modes
        w = bd.p1_mass(geom.triangles, bd.triangle_areas(geom.vertices, geom.triangles),
                       geom.vertices.shape[0], lumped=True).diagonal()
    return float(np.abs((Y * w) @ Y.T - np.eye(spec.count)).max())


def quadrature_contract(spec, c, N_trunc):
    """sum_k c_k G[k, m, n] for m, n < N_trunc on the curve grid."""
    grid = curve_grid(spec)
    Y = grid.modes[:N_trunc]
    return (Y * (grid.weights * grid.values(c))) @ Y.T


def accretivity_integral_test(z, test_count=32, seed=0):
    """Check integral(re(z) |g|^2) >= 0 over probe functions g on a curve.

    Probes are ``test_count`` random band-limited functions plus the
    Rayleigh minimizer of the grid compression of re(z), so the outcome is
    exact and agrees with ``positivity_test`` applied to re(z).  Every
    integral is a grid sum, independent of ``TripleProductTensor``.
    """
    spec = z.spectrum
    N = z.coeffs.size
    grid = curve_grid(spec)
    re_z = grid.values(z.coeffs.real)
    A = quadrature_contract(spec, z.coeffs.real, N)
    tol = hermitian_check(A)["tol"]
    _, eigvecs = np.linalg.eigh(A)

    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(test_count):
        width = int(rng.integers(1, min(12, N) + 1))
        start = int(rng.integers(0, N - width + 1))
        g = np.zeros(N, dtype=complex)
        g[start:start + width] = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        probes.append(g / np.linalg.norm(g))
    probes.append(eigvecs[:, 0].astype(complex))

    values = [float(np.sum(grid.weights * re_z * np.abs(grid.values(g)) ** 2))
              for g in probes]
    return {"nonneg": min(values) >= -tol, "values": values, "tol": tol}


def unit_mode(spec, n):
    """The basis function Y_n (1-based index) as a SpectralFunction."""
    c = np.zeros(spec.count, dtype=complex)
    c[n - 1] = 1.0
    return bd.SpectralFunction(spec, c)


def dirac_coeffs(spec, comp, s0):
    """Truncated point mass at arclength s0 on a curve component:
    c_n = Y_n(x0)."""
    return bd.SpectralFunction(spec, curve_mode_values(spec, comp, [s0])[:, 0])


def square_geometry(side=1.0):
    pts = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    return bd.BoundaryGeometry(dim_ambient=2, components=(pts,))


def two_spheres(subdivisions=2, radius=1.0, spacing=4.0):
    """Two disjoint icospheres as one triangulation (two components)."""
    g1 = shapes.icosphere(subdivisions, radius, center=(0.0, 0.0, 0.0))
    g2 = shapes.icosphere(subdivisions, radius, center=(spacing, 0.0, 0.0))
    n1 = g1.vertices.shape[0]
    return bd.BoundaryGeometry(dim_ambient=3,
                               vertices=np.vstack([g1.vertices, g2.vertices]),
                               triangles=np.vstack([g1.triangles, g2.triangles + n1]))


def dict_check_closed_oriented(t):
    """``boundary._check_closed_oriented`` edge by edge through a dict of
    directed edges."""
    edges = {}
    for tri in t:
        for i in range(3):
            e = (int(tri[i]), int(tri[(i + 1) % 3]))
            if e in edges:
                raise bd.GeometryError("surface is not consistently oriented "
                                       f"(directed edge {e} repeated)")
            edges[e] = edges.get(e, 0) + 1
    for (a, b) in edges:
        if (b, a) not in edges:
            raise bd.GeometryError(f"surface is not closed (edge {(a, b)} unmatched)")


def dict_vertex_components(n_vertices, t):
    """``boundary._vertex_components`` relabelled through a dict, in order
    of first appearance."""
    rows = np.concatenate([t[:, 0], t[:, 1], t[:, 2]])
    cols = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
    g = sp.coo_matrix((np.ones_like(rows), (rows, cols)), shape=(n_vertices, n_vertices))
    _, labels = connected_components(g, directed=False)
    order = {}
    for lab in labels:
        if lab not in order:
            order[lab] = len(order)
    return np.array([order[lab] for lab in labels])


# ---------------------------------------------------------------------------
# the P1 element the long way
# ---------------------------------------------------------------------------

def cotangent_stiffness(v, t):
    """Cotangent Laplacian of a triangulated surface, angle by angle: the
    edge opposite the angle at a gets cot(angle) / 2."""
    local = np.zeros((t.shape[0], 3, 3))
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        u1 = v[t[:, b]] - v[t[:, a]]
        u2 = v[t[:, c]] - v[t[:, a]]
        cos = np.einsum("ij,ij->i", u1, u2)
        sin = np.linalg.norm(np.cross(u1, u2), axis=1)
        w = 0.5 * cos / np.maximum(sin, 1e-300)
        local[:, [b, c], [c, b]] -= w[:, None]
        local[:, [b, c], [b, c]] += w[:, None]
    return bd.assemble_p1(t, local, v.shape[0])


def gradient_stiffness(mesh):
    """integral(alpha^-1 grad phi_i . grad phi_j) of a 2-D mesh from the
    barycentric gradients, with alpha inverted per triangle."""
    v, t = mesh.vertices, mesh.triangles
    areas = np.abs(bd.triangle_areas(v, t))
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    g = np.stack([p1 - p2, p2 - p0, p0 - p1], axis=1)
    grads = np.stack([g[:, :, 1], -g[:, :, 0]], axis=2) / (2 * areas)[:, None, None]
    a = mesh.alpha
    if a is None:
        prod = np.einsum("mik,mjk->mij", grads, grads)
    elif a.ndim == 1:
        prod = (1.0 / a)[:, None, None] * np.einsum("mik,mjk->mij", grads, grads)
    else:
        prod = np.einsum("mik,mkl,mjl->mij", grads, np.linalg.inv(a), grads)
    return bd.assemble_p1(t, areas[:, None, None] * prod, mesh.n_vertices)


def dict_midpoint_split(v, t):
    """Midpoint split (triangle -> 4) edge by edge through a dict keyed on
    the sorted edge; returns the vertices, triangles and that dict."""
    verts = list(v)
    midpoint = {}

    def mid(a, b):
        key = (min(a, b), max(a, b))
        if key not in midpoint:
            midpoint[key] = len(verts)
            verts.append(0.5 * (verts[a] + verts[b]))
        return midpoint[key]

    new_t = []
    for a, b, c in t:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        new_t += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
    return np.array(verts), np.array(new_t, dtype=int), midpoint


def dict_icosphere(subdivisions):
    """The unit icosphere from the icosahedron by ``dict_midpoint_split``."""
    g = shapes.icosphere(0)
    v, t = g.vertices, g.triangles
    for _ in range(subdivisions):
        v, t, _ = dict_midpoint_split(v, t)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v, t


def dict_uniform_refine(mesh, boundary_project=None):
    """``acoustic.uniform_refine`` by ``dict_midpoint_split``, projecting
    the boundary midpoints one at a time."""
    v, t, midpoint = dict_midpoint_split(mesh.vertices, mesh.triangles)
    loops = []
    for loop in mesh.boundary_loops:
        new = []
        for a, b in zip(loop, np.roll(loop, -1)):
            m = midpoint[(min(a, b), max(a, b))]
            if boundary_project is not None:
                v[m] = boundary_project(v[m][None])[0]
            new += [int(a), m]
        loops.append(np.array(new, dtype=int))
    parent = np.repeat(np.arange(t.shape[0] // 4), 4)
    alpha = None if mesh.alpha is None else np.asarray(mesh.alpha)[parent]
    beta = None if mesh.beta is None else np.asarray(mesh.beta)[parent]
    return ac.DomainMesh(vertices=v, triangles=t, boundary_loops=loops,
                         alpha=alpha, beta=beta)
