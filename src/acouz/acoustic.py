"""2-D acoustic eigenproblems with generalized impedance boundary conditions.

The pressure form of the acoustic system on a polygonal domain G is

    -div(alpha^-1 grad p) = lambda^2 beta p         in G,
    gamma_n(alpha^-1 grad p) = i lambda Z gamma_0(p)  on dG,

discretized with the P1 stiffness and mass of ``boundary`` (the ones the
surface spectra use).  The boundary operator acts through the
spectral projector onto the first N_b boundary eigenmodes, so distributional
and nonlocal Z enter exactly as their Y-basis matrices:

    P(lambda) = K - i lambda B_Z - lambda^2 M,      B_Z = T^t Zhat T,

with T[n, dof] = integral(Y_n phi_dof dSigma) over the boundary.  B_Z has
rank at most N_b and is never assembled: it is applied through its factor
as T^t (Zhat (T x)) on the boundary dofs.  The quadratic pencil is
linearized as

    [[K, 0], [0, M]] y = lambda [[i B_Z, M], [M, 0]] y,     y = (p, lambda p),

and solved by shift-invert Arnoldi with residual certification on the
original pencil.  The shift is purely imaginary, so P(shift) = A0 + T^t Zs T
with A0 = K - shift^2 M real SPD and Zs = -i shift Zhat: one real LU of A0 per
mesh serves every impedance, and Zs enters through an N_b x N_b capacitance
matrix (Sherman-Morrison-Woodbury).

In energy coordinates x = (a, L^t q), ||x||^2 = |a|^2 + q^H M q, the
linearized operator A_h has Im <A_h x, x> = -q^H Herm(B_Z) q, so its
numerical range lies in Im <= omega_h = max(0, -mu_min), mu_min the smallest
eigenvalue of Herm(B_Z) q = mu M q.  By Lumer-Phillips,
||(A_h - z)^-1|| <= 1 / (Im z - omega_h) on all of Im z > omega_h, and A_h is
m-dissipative exactly when omega_h <= 0, which is what verify_mdissipativity
certifies for accretive Z.
"""

from __future__ import annotations

import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import Delaunay

from .boundary import (
    BoundaryGeometry, SpectrumError, arpack_start, curve_modes, midpoint_subdivide,
    p1_mass, p1_stiffness, triangle_areas,
)
from .fgf import impedance_coefficients, sample_random_impedance
from .impedance import is_accretive, multiplier_impedance
from .multipliers import TripleProductTensor

RESIDUAL_TOL = 1e-8
HALFPLANE_TOL = 1e-8     # scaled by (1 + |lambda|)
ARPACK_TOL = 1e-10
# times lam_scale: lambda = 0 (K 1 = 0) is defective when 1^t B_Z 1 = 0, so
# its computed value moves by ~sqrt(backward error)
ZERO_TOL = math.sqrt(RESIDUAL_TOL)
# Above it the Woodbury correction of a solve loses more than RESIDUAL_TOL to
# rounding: the capacitance matrix, and so P(shift), is numerically singular.
CAPACITANCE_COND_MAX = RESIDUAL_TOL / np.finfo(float).eps


class MeshError(ValueError):
    """Invalid mesh or mesh/spectrum mismatch."""


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

@dataclass
class DomainMesh:
    """P1 triangulation of a polygonal domain, possibly with holes.

    ``boundary_loops`` lists the vertex indices of every boundary component
    in traversal order; the polyline of a loop is the reference geometry for
    the matching boundary spectrum.  Material fields are per triangle:
    ``alpha`` is None (identity), a scalar array (isotropic), or (m, 2, 2);
    ``beta`` is None (unity) or a scalar array.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_loops: list
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None

    def __post_init__(self):
        v, t = self.vertices, self.triangles
        areas = triangle_areas(v, t)
        flip = areas < 0
        if np.any(flip):
            t = t.copy()
            t[flip] = t[flip][:, [0, 2, 1]]
            self.triangles = t
        if np.any(np.abs(areas) < 1e-14):
            raise MeshError("mesh contains degenerate triangles")
        if self.alpha is not None:
            a = np.asarray(self.alpha, dtype=float)
            if a.ndim == 3:
                eigs = np.linalg.eigvalsh(a)
                if eigs.min() <= 0:
                    raise MeshError("alpha must be uniformly positive definite")
            elif np.any(a <= 0):
                raise MeshError("alpha must be uniformly positive")
            self.alpha = a
        if self.beta is not None:
            b = np.asarray(self.beta, dtype=float)
            if np.any(b <= 0):
                raise MeshError("beta must be uniformly positive")
            self.beta = b

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    def boundary_geometry(self):
        comps = tuple(self.vertices[np.asarray(loop)] for loop in self.boundary_loops)
        return BoundaryGeometry(dim_ambient=2, components=comps)

    def to_dict(self):
        return {"vertices": self.vertices.tolist(),
                "triangles": self.triangles.tolist(),
                "boundary_loops": [list(map(int, l)) for l in self.boundary_loops],
                "alpha": None if self.alpha is None else self.alpha.tolist(),
                "beta": None if self.beta is None else self.beta.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(vertices=np.asarray(d["vertices"], dtype=float),
                   triangles=np.asarray(d["triangles"], dtype=int),
                   boundary_loops=[np.asarray(l, dtype=int) for l in d["boundary_loops"]],
                   alpha=None if d.get("alpha") is None else np.asarray(d["alpha"]),
                   beta=None if d.get("beta") is None else np.asarray(d["beta"]))

    def save_json(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f)

    @classmethod
    def load_json(cls, path):
        with open(path) as f:
            return cls.from_dict(json.load(f))


def disk_mesh(h, radius=1.0):
    """Unstructured disk mesh: staggered concentric rings + Delaunay.

    The boundary is the inscribed regular n-gon with n ~ 2 pi R / h; the
    same polyline is the reference curve for the boundary spectrum.
    """
    n_b = max(12, int(round(2 * np.pi * radius / h)))
    n_r = max(2, int(round(radius / h)))
    pts = [np.zeros((1, 2))]
    for j in range(1, n_r + 1):
        r = radius * j / n_r
        n_j = n_b if j == n_r else max(6, int(round(n_b * j / n_r)))
        th = 2 * np.pi * (np.arange(n_j) + 0.5 * (j % 2)) / n_j
        pts.append(r * np.column_stack([np.cos(th), np.sin(th)]))
    v = np.vstack(pts)
    tri = Delaunay(v)
    outer_start = v.shape[0] - n_b
    loop = np.arange(outer_start, v.shape[0])
    return DomainMesh(vertices=v, triangles=tri.simplices.copy(),
                      boundary_loops=[loop])


def annulus_mesh(h, r_inner=0.5, r_outer=1.0):
    """Structured annulus mesh; boundary components: outer loop then inner."""
    if not 0 < r_inner < r_outer:
        raise MeshError("need 0 < r_inner < r_outer")
    n_t = max(12, int(round(2 * np.pi * r_outer / h)))
    n_r = max(2, int(round((r_outer - r_inner) / h)))
    radii = np.linspace(r_inner, r_outer, n_r + 1)
    th = 2 * np.pi * np.arange(n_t) / n_t
    rings = [r * np.column_stack([np.cos(th), np.sin(th)]) for r in radii]
    v = np.vstack(rings)
    tris = []
    for j in range(n_r):
        base0, base1 = j * n_t, (j + 1) * n_t
        for i in range(n_t):
            ip = (i + 1) % n_t
            tris.append([base0 + i, base0 + ip, base1 + i])
            tris.append([base0 + ip, base1 + ip, base1 + i])
    outer = np.arange(n_r * n_t, (n_r + 1) * n_t)
    inner = np.arange(0, n_t)
    return DomainMesh(vertices=v, triangles=np.array(tris, dtype=int),
                      boundary_loops=[outer, inner])


def convex_polygon_mesh(corners, h):
    """Delaunay mesh of a convex polygon with ~h boundary spacing."""
    corners = np.asarray(corners, dtype=float)
    bpts = []
    n_c = corners.shape[0]
    for i in range(n_c):
        a, b = corners[i], corners[(i + 1) % n_c]
        n_seg = max(1, int(round(np.linalg.norm(b - a) / h)))
        for j in range(n_seg):
            bpts.append(a + (b - a) * j / n_seg)
    bpts = np.array(bpts)
    lo, hi = corners.min(0), corners.max(0)
    xs = np.arange(lo[0] + 0.5 * h, hi[0], h)
    ys = np.arange(lo[1] + 0.5 * h * np.sqrt(3) / 2, hi[1], h * np.sqrt(3) / 2)
    gx, gy = np.meshgrid(xs, ys)
    gx = gx + (np.arange(gy.shape[0]) % 2)[:, None] * 0.5 * h
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    keep = _inside_convex(grid, corners, margin=0.55 * h)
    v = np.vstack([bpts, grid[keep]])
    tri = Delaunay(v)
    loop = np.arange(bpts.shape[0])
    return DomainMesh(vertices=v, triangles=tri.simplices.copy(),
                      boundary_loops=[loop])


def _inside_convex(pts, corners, margin):
    n_c = corners.shape[0]
    ok = np.ones(pts.shape[0], dtype=bool)
    for i in range(n_c):
        a, b = corners[i], corners[(i + 1) % n_c]
        e = b - a
        nrm = np.array([-e[1], e[0]]) / np.linalg.norm(e)   # inward for CCW
        ok &= (pts - a) @ nrm >= margin
    return ok


def uniform_refine(mesh, boundary_project=None):
    """Midpoint refinement (triangle -> 4) by ``midpoint_subdivide``.

    Boundary-edge midpoints are inserted into the loops; ``boundary_project``
    (e.g. a snap onto the circumscribing circle) maps the (k, 2) array of
    them to new positions so the refined family converges to a curved
    domain.  Material fields are inherited by the four children.
    """
    n = mesh.n_vertices
    v, t, edges = midpoint_subdivide(mesh.vertices, mesh.triangles)
    keys = edges[:, 0] * n + edges[:, 1]
    order = np.argsort(keys)
    loops = []
    for loop in mesh.boundary_loops:
        loop = np.asarray(loop, dtype=int)
        nxt = np.roll(loop, -1)
        key = np.minimum(loop, nxt) * n + np.maximum(loop, nxt)
        mid = n + order[np.searchsorted(keys, key, sorter=order)]
        loops.append(np.column_stack([loop, mid]).ravel())
    if boundary_project is not None:
        mids = np.concatenate([loop[1::2] for loop in loops])
        v[mids] = boundary_project(v[mids])
    parent = np.repeat(np.arange(mesh.triangles.shape[0]), 4)
    alpha = None if mesh.alpha is None else np.asarray(mesh.alpha)[parent]
    beta = None if mesh.beta is None else np.asarray(mesh.beta)[parent]
    return DomainMesh(vertices=v, triangles=t, boundary_loops=loops,
                      alpha=alpha, beta=beta)


def circle_projector(radius=1.0):
    """Radial projection of (k, 2) points onto the circle about the origin."""
    def proj(p):
        return p * (radius / np.linalg.norm(p, axis=1, keepdims=True))
    return proj


def disk_mesh_family(h, levels, radius=1.0):
    """Nested-vertex disk meshes whose boundary snaps to the circle.

    Domain and FEM error both shrink at second order, so eigenvalues
    converge to the true disk values along the family.
    """
    out = [disk_mesh(h, radius=radius)]
    proj = circle_projector(radius)
    for _ in range(levels - 1):
        out.append(uniform_refine(out[-1], boundary_project=proj))
    return out


# ---------------------------------------------------------------------------
# FEM assembly
# ---------------------------------------------------------------------------

def stiffness_matrix(mesh):
    """K[i, j] = integral(alpha^-1 grad phi_i . grad phi_j)."""
    return p1_stiffness(mesh.vertices, mesh.triangles, mesh.alpha)


def mass_matrix_2d(mesh):
    """Consistent mass M[i, j] = integral(beta phi_i phi_j)."""
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    if mesh.beta is not None:
        areas = mesh.beta * areas
    return p1_mass(mesh.triangles, areas, mesh.n_vertices)


def _boundary_dofs(mesh):
    return np.concatenate(mesh.boundary_loops).astype(int)


def _boundary_edges(mesh):
    """Boundary edges (a, b, ell) in bdof numbering.

    The bdofs concatenate the loops, so vertex i of loop j is bdof off_j + i;
    edge off_j + i runs from it to the next vertex of the loop.
    """
    a, b, ell = [], [], []
    off = 0
    for loop in mesh.boundary_loops:
        idx = off + np.arange(len(loop))
        off += len(loop)
        pts = mesh.vertices[np.asarray(loop)]
        a.append(idx)
        b.append(np.roll(idx, -1))
        ell.append(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1))
    return np.concatenate(a), np.concatenate(b), np.concatenate(ell)


def boundary_mass_matrix(mesh):
    """Lumped-free 1-D mass of the boundary trace space (dense, bdof order)."""
    a, b, ell = _boundary_edges(mesh)
    Mb = p1_mass(np.column_stack([a, b]), ell, a.size)
    return Mb.toarray(), _boundary_dofs(mesh)


_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)


def moment_matrix(mesh, spec, N_b):
    """T[n, k] = integral(Y_n phi_k dSigma) over boundary dofs k.

    Gauss-Legendre per boundary edge against the analytic arclength modes,
    so the moment matrix carries no grid error beyond quadrature decay.
    All edges of a loop are evaluated at once; the hat function of vertex i
    collects the falling half of edge i and the rising half of edge i - 1.
    """
    if N_b > spec.count:
        raise SpectrumError(f"N_b={N_b} exceeds the boundary spectrum ({spec.count})")
    _, _, ell = _boundary_edges(mesh)
    lengths = spec.geometry.component_lengths()
    T = np.zeros((N_b, ell.size))
    off = 0
    for comp, loop in enumerate(mesh.boundary_loops):
        edges = slice(off, off + len(loop))
        off += len(loop)
        seg = ell[edges, None]
        s0 = np.concatenate([[0.0], np.cumsum(seg[:-1])])[:, None]
        sq = s0 + 0.5 * seg * (_GL8_X + 1.0)            # (edges, 8)
        wq = 0.5 * seg * _GL8_W
        lam_b = (sq - s0) / seg
        Y = curve_modes(spec.mode_comp[:N_b], spec.mode_kind[:N_b],
                        spec.mode_freq[:N_b], comp, lengths[comp],
                        sq.ravel()).reshape(N_b, *sq.shape)
        falling = np.einsum("neq,eq->ne", Y, wq * (1.0 - lam_b))
        rising = np.einsum("neq,eq->ne", Y, wq * lam_b)
        T[:, edges] = falling + np.roll(rising, 1, axis=1)
    return T, _boundary_dofs(mesh)


def trace_projection(mesh, spec, N_b):
    """P = G^(-1/2) T: traces onto orthonormalized discrete boundary modes.

    T is the moment matrix and G = T Mb^-1 T^t the Gram of the boundary
    eigenmodes represented in the FEM trace space (Mb the boundary mass).
    The mass-inverse normalization makes P^t P converge to Mb cleanly: at
    N_b equal to the boundary dof count, P^t Zhat P with Zhat = z0 I is
    z0 Mb exactly.  Since G^(-1/2) is Hermitian positive, P^t Zhat P
    inherits the accretivity of Zhat.
    """
    T, bdofs = moment_matrix(mesh, spec, N_b)
    if N_b > len(bdofs):
        raise MeshError(f"N_b={N_b} exceeds the {len(bdofs)} boundary dofs")
    Mb, _ = boundary_mass_matrix(mesh)
    G = T @ np.linalg.solve(Mb, T.T)
    gvals, gvecs = np.linalg.eigh(G)
    if gvals.min() <= 1e-12 * gvals.max():
        raise MeshError("boundary modes degenerate in the trace space "
                        "(N_b too large for this mesh)")
    G_isqrt = (gvecs / np.sqrt(gvals)) @ gvecs.T
    return G_isqrt @ T, bdofs


# ---------------------------------------------------------------------------
# pencil assembly and solve
# ---------------------------------------------------------------------------

@dataclass
class AcousticPencil:
    """Matrices of P(lambda) = K - i lambda B_Z - lambda^2 M.

    ``assemble_pencil`` builds the geometry-dependent parts once (the Neumann
    pencil and the factor of A0 = K - shift^2 M); ``with_impedance`` plugs in
    Zhat and shares them.  B_Z = T^t Zhat T has rank at most N_b and is never
    assembled: ``apply_B`` applies it through its factors on the bdofs.
    """

    mesh: DomainMesh
    spectrum: object
    K: sp.csr_matrix
    M: sp.csr_matrix
    N_b: int
    Zhat: np.ndarray            # (N_b, N_b); zeros for the Neumann pencil
    trace: np.ndarray           # T, (N_b, n_bdofs)
    bdofs: np.ndarray           # vertex of every boundary dof, loop by loop
    lam_scale: float = 1.0      # smallest nonzero Neumann eigenvalue
    shifted_lu: object = None   # sparse LU of the real SPD A0
    W: np.ndarray | None = None     # A0^-1 T^t, (n, N_b)
    S0: np.ndarray | None = None    # T A0^-1 T^t, (N_b, N_b)

    @property
    def n(self):
        return self.K.shape[0]

    @property
    def shift(self):
        """The shift-invert point 0.6i lam_scale of every solve."""
        return 0.6j * self.lam_scale

    def trace_scatter(self):
        """T^t on all dofs: the (n, N_b) array whose row bdofs[k] is T[:, k]."""
        Tt = np.zeros((self.n, self.N_b))
        Tt[self.bdofs] = self.trace.T
        return Tt

    def with_impedance(self, Z):
        """This pencil with Zhat = Z compressed to N_b.

        Z = None or a zero operator returns this (Neumann) pencil itself.
        """
        if Z is None or not np.any(Z.matrix):
            return self
        if Z.N_trunc < self.N_b:
            raise SpectrumError(f"impedance truncation {Z.N_trunc} below N_b={self.N_b}")
        return replace(self, Zhat=Z.matrix[:self.N_b, :self.N_b])

    def apply_B(self, x):
        """B_Z x = T^t (Zhat (T x[bdofs])) for x of shape (n,) or (n, k):
        O(n_bdofs N_b) work, zero off the bdofs."""
        out = np.zeros(x.shape, dtype=complex)
        out[self.bdofs] = self.trace.T @ (self.Zhat @ (self.trace @ x[self.bdofs]))
        return out

    def evaluate(self, lam, x):
        return self.K @ x - 1j * lam * self.apply_B(x) - lam ** 2 * (self.M @ x)


def check_geometry_match(mesh, spec, tol=1e-10):
    comps = spec.geometry.components
    if len(comps) != len(mesh.boundary_loops):
        raise MeshError("boundary component count differs between mesh and spectrum")
    for c, loop in zip(comps, mesh.boundary_loops):
        pts = mesh.vertices[np.asarray(loop)]
        if c.shape != pts.shape or not np.allclose(c, pts, atol=tol, rtol=0.0):
            raise MeshError("mesh boundary and spectrum geometry disagree "
                            "(vertices or arclengths differ)")


def default_N_b(mesh, spec):
    """Boundary modes kept by default: half the dofs of all boundary loops,
    between 4 and 64, and no more than the spectrum holds."""
    return min(64, max(4, len(_boundary_dofs(mesh)) // 2), spec.count)


def assemble_pencil(mesh, spec, N_b=None):
    """The Neumann pencil K - lambda^2 M with its trace projection.

    K, M, T, lam_scale and the shifted factor depend on the mesh only;
    ``with_impedance`` reuses them for every impedance operator.  The
    factor is one sparse LU of the real SPD A0 = K - shift^2 M, with
    W = A0^-1 T^t and S0 = T W for the rank-N_b boundary term.
    """
    check_geometry_match(mesh, spec)
    if N_b is None:
        N_b = default_N_b(mesh, spec)
    K = stiffness_matrix(mesh)
    M = mass_matrix_2d(mesh)
    T, bdofs = trace_projection(mesh, spec, N_b)
    pencil = AcousticPencil(mesh=mesh, spectrum=spec, K=K, M=M, N_b=N_b,
                            Zhat=np.zeros((N_b, N_b)), trace=T, bdofs=bdofs)
    pencil.lam_scale = neumann_scale(pencil)
    # SPD, so diagonal pivots on a symmetric ordering are stable
    pencil.shifted_lu = spla.splu((K - (pencil.shift ** 2).real * M).tocsc(),
                                  permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                  options={"SymmetricMode": True})
    pencil.W = pencil.shifted_lu.solve(pencil.trace_scatter())
    pencil.S0 = T @ pencil.W[bdofs]
    return pencil


@dataclass
class EigenReport:
    """Certified eigenvalues of one pencil solve."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    converged: np.ndarray
    zero_tol: float
    residual_tol: float = RESIDUAL_TOL
    halfplane_tol: float = HALFPLANE_TOL

    def __post_init__(self):
        order = np.argsort(np.abs(self.eigenvalues), kind="stable")
        self.eigenvalues = self.eigenvalues[order]
        self.residuals = self.residuals[order]
        self.converged = self.converged[order]

    @property
    def zero_cluster_size(self):
        return int(np.sum(np.abs(self.eigenvalues) <= self.zero_tol))

    def _certified_mask(self):
        return (np.abs(self.eigenvalues) > self.zero_tol) & self.converged \
            & (self.residuals <= self.residual_tol)

    def certified(self):
        return self.eigenvalues[self._certified_mask()]

    def in_lower_halfplane(self):
        lam = self.certified()
        return bool(np.all(lam.imag <= self.halfplane_tol * (1 + np.abs(lam))))

    def real_within_tol(self):
        lam = self.certified()
        return bool(np.all(np.abs(lam.imag) <= self.halfplane_tol * (1 + np.abs(lam))))

    def rows(self, sample_id=0):
        """(re, im, residual, q_factor, certified, sample_id) per eigenvalue.

        q = |Re lambda| / (-2 Im lambda) for a decaying lambda, i.e. Im lambda
        below -halfplane_tol * (1 + |lambda|), the tolerance of the
        half-plane checks; inf for every other lambda.
        """
        out = []
        for lam, res, ok in zip(self.eigenvalues, self.residuals,
                                self._certified_mask()):
            decaying = lam.imag < -self.halfplane_tol * (1 + abs(lam))
            q = abs(lam.real) / (-2 * lam.imag) if decaying else math.inf
            out.append((lam.real, lam.imag, res, q, int(ok), sample_id))
        return out


def neumann_scale(pencil):
    """Magnitude of the smallest nonzero Neumann eigenvalue, sqrt scale."""
    k = min(6, pencil.n - 2)
    sigma = -1e-3 * (pencil.K.diagonal().mean() / pencil.M.diagonal().mean())
    nu = spla.eigsh(pencil.K, k=k, M=pencil.M, sigma=sigma, which="LM",
                    v0=arpack_start(pencil.n), return_eigenvectors=False)
    nu = np.sort(nu)
    pos = nu[nu > 1e-8 * max(nu.max(), 1.0)]
    return float(np.sqrt(pos[0])) if pos.size else 1.0


def solve_pencil(pencil, n_wanted=12):
    """Eigenvalues of P(lambda) nearest the shift 0.6i lam_scale, with their
    residuals on P.  Every impedance, Z = 0 included, takes one path:
    shift-invert Arnoldi on the linearization, since block elimination
    gives, for y = (p, q), (A - shift B_blk)^-1 B_blk y = (x, shift x + p)
    with x = P(shift)^-1 (i B_Z p + M (q + shift p)).  P(shift)^-1 is applied
    by Woodbury from the pencil's shared factor of A0: with
    Zs = -i shift Zhat and the capacitance C = I + Zs S0,
    x = x0 - W C^-1 Zs T x0 for x0 = A0^-1 r, in real solves.  A numerically
    singular C means P(shift) is singular: SpectrumError.  Non-converged
    Ritz values are reported with ``converged=False``, never dropped.
    """
    n, M, shift = pencil.n, pencil.M, pencil.shift
    lu0, W, T, bdofs = pencil.shifted_lu, pencil.W, pencil.trace, pencil.bdofs
    Zs = -1j * shift * pencil.Zhat
    C = np.eye(pencil.N_b) + Zs @ pencil.S0
    cond = np.linalg.cond(C)
    if not cond <= CAPACITANCE_COND_MAX:
        raise SpectrumError(f"P(shift) is singular: capacitance condition {cond:.2e}")
    F = np.linalg.solve(C, Zs)

    def solve_shifted(r):
        x0 = lu0.solve(np.column_stack([r.real, r.imag]))
        t = T @ x0[bdofs]
        d = F @ (t[:, 0] + 1j * t[:, 1])
        x = x0 - W @ np.column_stack([d.real, d.imag])    # W stays real
        return x[:, 0] + 1j * x[:, 1]

    def matvec(y):
        p, q = y[:n], y[n:]
        x = solve_shifted(1j * pencil.apply_B(p) + M @ (q + shift * p))
        return np.concatenate([x, shift * x + p])

    op = spla.LinearOperator(dtype=complex, shape=(2 * n, 2 * n), matvec=matvec)
    converged = True
    try:
        w, Y = spla.eigs(op, k=min(n_wanted, 2 * n - 2), which="LM",
                         tol=ARPACK_TOL, v0=arpack_start(2 * n))
    except spla.ArpackNoConvergence as err:
        w, Y = err.eigenvalues, err.eigenvectors
        converged = False
        if w.size == 0:
            raise SpectrumError("eigen-solver returned no converged pairs") from err
    lam, X = shift + 1.0 / w, Y[:n]     # eigenvectors are (p, lambda p)
    res = np.linalg.norm(pencil.evaluate(lam, X), axis=0) / np.linalg.norm(X, axis=0)
    return EigenReport(eigenvalues=lam, residuals=res,
                       converged=np.full(lam.size, converged),
                       zero_tol=ZERO_TOL * pencil.lam_scale)


# ---------------------------------------------------------------------------
# m-dissipativity verification
# ---------------------------------------------------------------------------

def _energy_reduction(pencil, kernel_tol=1e-10):
    """A_h in energy coordinates, kernel of K deflated: the dense test oracle.

    With K = U diag(kappa) U^t (kappa > 0 kept), M = L L^t, the state
    (a, b) = (sqrt(kappa) U^t p, L^t q) renders the linearization as

        A_hat = [[0, C], [C^H, -i L^-1 B L^-t]],  C = sqrt(kappa) U^t L^-t,

    whose imaginary part is -Herm(B) conjugated.  Nothing in the package
    calls it: it is O(n^3) and serves the tests as the reference for
    verify_mdissipativity, and keeps its name for the benchmark's tracing.
    """
    K = pencil.K.toarray()
    M = pencil.M.toarray()
    kappa, U = np.linalg.eigh(K)
    keep = kappa > kernel_tol * max(kappa.max(), 1.0)
    Uk = U[:, keep]
    sq = np.sqrt(kappa[keep])
    L = np.linalg.cholesky(M)
    Linv = sla.solve_triangular(L, np.eye(L.shape[0]), lower=True)
    C = (sq[:, None] * Uk.T) @ Linv.T
    LT = Linv @ pencil.trace_scatter()
    Bt = LT @ pencil.Zhat @ LT.T
    n1, n2 = C.shape
    A = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    A[:n1, n1:] = C
    A[n1:, :n1] = C.conj().T
    A[n1:, n1:] = -1j * Bt
    return A


def verify_mdissipativity(pencil, report):
    """Lumer-Phillips certificate and half-plane diagnostics of a solve.

    ``omega_h`` = max(0, -mu_min) bounds the numerical range of A_h,
    Im <= omega_h, so ||(A_h - z)^-1|| <= 1 / (Im z - omega_h) for every
    Im z > omega_h; omega_h = 0 is m-dissipativity.  B_Z = T^t Zhat T has
    rank N_b, so the nonzero mu of Herm(B_Z) q = mu M q are, by congruence,
    the eigenvalues of R^t Herm(Zhat) R with S = T M^-1 T^t = R R^t: one
    sparse LU of M, N_b solves and an N_b x N_b ``eigvalsh``.  ``mu_min`` is
    the smallest of them and ``s_norm`` = ||S||_2 scales the tolerance.
    ``halfplane_check``: largest Im(lambda) over certified eigenvalues.
    """
    S = pencil.trace @ spla.splu(pencil.M.tocsc()).solve(
        pencil.trace_scatter())[pencil.bdofs]
    R = np.linalg.cholesky(S)
    Zhat = pencil.Zhat
    mu = np.linalg.eigvalsh(R.T @ (0.5 * (Zhat + Zhat.conj().T)) @ R)
    lam = report.certified()
    return {"omega_h": max(0.0, -float(mu[0])), "mu_min": float(mu[0]),
            "s_norm": float(np.linalg.eigvalsh(S)[-1]),
            "halfplane_check": float(lam.imag.max()) if lam.size else 0.0,
            "halfplane_ok": report.in_lower_halfplane()}


# ---------------------------------------------------------------------------
# refinement and Monte Carlo
# ---------------------------------------------------------------------------

def _match_eigen(prev, curr, gap_ratio=0.5):
    """Match prev eigenvalues to nearest in curr with a gap-ratio guard."""
    matched, flags = [], []
    for lam in prev:
        d = np.abs(curr - lam)
        j = int(np.argmin(d))
        d_sorted = np.sort(d)
        ambiguous = d_sorted.size > 1 and d_sorted[0] > gap_ratio * d_sorted[1]
        matched.append(curr[j])
        flags.append(bool(ambiguous))
    return np.array(matched), flags


def refinement_study(levels, z_maker=None, n_track=5, n_wanted=18, N_b=None,
                     oracle=None):
    """Track eigenvalues across a mesh family and estimate convergence order.

    ``levels`` is a list of (mesh, spectrum) pairs (at least 3);
    ``z_maker(spec)`` builds the impedance operator per level (None for
    Neumann).  Tracked eigenvalues are the n_track smallest nonzero ones
    with nonnegative real part on the coarsest level, followed through the
    family by nearest-neighbor matching with a gap-ratio guard of 0.5.
    Observed order against ``oracle`` (if given) or by self-convergence.
    """
    if len(levels) < 3:
        raise MeshError("refinement study needs at least 3 mesh levels")
    flags, per_level = [], []
    for mesh, spec in levels:
        Z = z_maker(spec) if z_maker is not None else None
        pencil = assemble_pencil(mesh, spec, N_b=N_b).with_impedance(Z)
        report = solve_pencil(pencil, n_wanted=n_wanted)
        lam = report.certified()
        per_level.append(lam[lam.real >= -report.zero_tol])   # sorted by |lambda|
    tracks = [per_level[0][:n_track]]
    for lv in range(1, len(per_level)):
        matched, amb = _match_eigen(tracks[-1], per_level[lv])
        tracks.append(matched)
        flags.append(amb)
    tracks = np.array(tracks)       # (levels, n_track)

    table = {"tracked": tracks, "ambiguous": flags}
    if oracle is not None:
        oracle = np.asarray(oracle, dtype=complex)[:n_track]
        err = np.abs(tracks - oracle[None, :])
        with np.errstate(divide="ignore"):
            orders = np.log2(err[:-1] / err[1:])
        table["errors"] = err
        table["orders"] = orders
    diffs = np.abs(np.diff(tracks, axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        table["self_orders"] = np.log2(diffs[:-1] / diffs[1:])
    table["last_rel_change"] = np.abs(tracks[-1] - tracks[-2]) / np.abs(tracks[-1])
    gaps = []
    for row in tracks:
        d = np.abs(row[:, None] - row[None, :])
        d[np.diag_indices(row.size)] = np.inf
        gaps.append(float(d.min()))
    table["min_pairwise_gap"] = min(gaps)
    return table


_sample = None    # the Monte Carlo sample closure of a forked worker


def _install_sample(attempt):
    """Worker initializer: the forked child keeps the sample closure."""
    global _sample
    _sample = attempt


def _run_sample(i):
    return _sample(i)


def monte_carlo_spectrum(mesh, spec, rspec, n_samples=50, seed0=0, N_b=None,
                         n_wanted=14, workers=1):
    """Ensemble of pencil solves over sampled random impedances.

    Per sample: zeta drawn by the counter-based sampler, mapped to boundary
    operator coefficients (field part skew, kernel part nonnegative),
    compressed to N_b modes, solved, classified.  Failures are counted and
    the run continues; so are solved samples whose ARPACK run did not
    converge (``n_unconverged``).  A kernel-weight count that does not match
    the boundary's b0 fails every sample alike, so it raises ValueError
    before any sampling.

    Every sample shares the mesh's one factor of A0.  With ``workers`` > 1
    the samples are solved in min(workers, n_samples) processes forked after
    that set-up: each child inherits the assembled pencil, its SuperLU
    factor, W, S0 and the triple-product tensor, receives only sample
    indices and returns one result dict per sample.  Results come back in
    sample order, so the worker count does not change them.  A child that
    dies breaks the pool, which raises; the pool is joined either way.
    Where ``fork`` is not available the samples run serially.
    """
    rspec.check_kernel_weights(spec.b0)
    base = assemble_pencil(mesh, spec, N_b=N_b)
    tensor = TripleProductTensor(spec)

    def attempt(i):
        """(result, None) for a solved sample, (None, failure) otherwise."""
        seed = seed0 + i
        try:
            zeta = sample_random_impedance(spec, rspec, spec.count, seed)
            phi = impedance_coefficients(zeta)
            Z = multiplier_impedance(phi, base.N_b, tensor=tensor)
            report = solve_pencil(base.with_impedance(Z), n_wanted=n_wanted)
            accretive = is_accretive(Z)["nonneg"]
        except Exception as err:   # per-sample failure: count, go on
            return None, {"sample": i, "error": str(err)}
        return {"seed": seed,
                "eigenvalues": report.eigenvalues,
                "rows": report.rows(sample_id=i),
                "halfplane": report.in_lower_halfplane(),
                "real_spectrum": report.real_within_tol(),
                "zero_cluster": report.zero_cluster_size,
                "accretive": accretive,
                "unconverged": not report.converged.all()}, None

    processes = min(workers, n_samples)
    if processes > 1 and "fork" in multiprocessing.get_all_start_methods():
        with ProcessPoolExecutor(processes, multiprocessing.get_context("fork"),
                                 initializer=_install_sample,
                                 initargs=(attempt,)) as ex:
            outcomes = list(ex.map(_run_sample, range(n_samples)))
    else:
        outcomes = list(map(attempt, range(n_samples)))
    done = [r for r, _ in outcomes if r is not None]
    failures = [f for _, f in outcomes if f is not None]
    n_done = len(done)
    summary = {
        "n_samples": n_samples,
        "n_solved": n_done,
        "n_unconverged": sum(r["unconverged"] for r in done),
        "failures": failures,
        **{f"fraction_{key}": sum(r[key] for r in done) / max(n_done, 1)
           for key in ("halfplane", "real_spectrum", "accretive")},
        "min_zero_cluster": min((r["zero_cluster"] for r in done), default=0),
    }
    return {"summary": summary, "samples": done}
