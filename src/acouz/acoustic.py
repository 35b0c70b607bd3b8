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
as T^t (Zhat (T x)) on the boundary dofs.  In mu = -i lambda, P is the
quadratic K + mu B_Z + mu^2 M, real for a real Zhat, and is linearized as

    [[-K, 0], [0, M]] y = mu [[B_Z, M], [M, 0]] y,     y = (p, mu p),

then solved by shift-invert Arnoldi at the real shift tau = 0.6 lam_scale,
lam_scale the smallest nonzero Neumann lambda at any mesh scale, with
residual certification on P.  P(i tau) = A0 + T^t (tau Zhat) T with
A0 = K + tau^2 M real SPD: the one real LU of A0, made with the pencil,
serves every impedance, and tau Zhat enters through an N_b x N_b
capacitance matrix (Sherman-Morrison-Woodbury).

In energy coordinates x = (a, L^t q), ||x||^2 = |a|^2 + q^H M q, the
linearized operator A_h has Im <A_h x, x> = -q^H Herm(B_Z) q, so its
numerical range lies in Im <= omega_h = max(0, -mu_min), mu_min the smallest
eigenvalue of Herm(B_Z) q = mu M q.  By Lumer-Phillips,
||(A_h - z)^-1|| <= 1 / (Im z - omega_h) on all of Im z > omega_h, and A_h is
m-dissipative exactly when omega_h <= 0, which is what verify_mdissipativity
certifies for accretive Z.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import Delaunay

from .boundary import (
    BoundaryGeometry, SpectrumError, arpack_start, check_triangulation, check_truncation,
    curve_modes, exact_dtype, forked_map, p1_mass, p1_stiffness, triangle_areas,
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
# eigenvalues a pencil solve asks for, and Monte Carlo samples, by default
N_WANTED = 14
N_SAMPLES = 50
# Above it the Woodbury correction of a solve loses more than RESIDUAL_TOL to
# rounding: the capacitance matrix, and so P(shift), is numerically singular.
CAPACITANCE_COND_MAX = RESIDUAL_TOL / np.finfo(float).eps


class MeshError(ValueError):
    """Invalid mesh or mesh/spectrum mismatch."""


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class DomainMesh:
    """P1 triangulation of a polygonal domain, possibly with holes.

    ``boundary_loops`` lists the vertex indices of every boundary component
    in traversal order, either way round; the polyline of a loop is the
    reference geometry for the matching boundary spectrum.  The loops must be
    the boundary of the triangulation: their edges are, once each, the edges
    that only one triangle has.  ``boundary_dofs`` is the vertex of every
    boundary dof, the loops concatenated.  Material fields are per triangle:
    ``alpha`` is None (identity), a scalar array (isotropic), or (m, 2, 2)
    symmetric; ``beta`` is None (unity) or a scalar array.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_loops: list
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None

    def __post_init__(self):
        v, t = self.vertices, self.triangles
        if v.ndim != 2 or v.shape[1] != 2 or t.ndim != 2 or t.shape[1] != 3:
            raise MeshError("a mesh needs (n,2) vertices and (m,3) triangles")
        areas = check_triangulation(v, t, MeshError)
        flip = areas < 0
        if np.any(flip):
            t = t.copy()
            t[flip] = t[flip][:, [0, 2, 1]]
            self.triangles = t
        n, loops = v.shape[0], [np.asarray(loop, dtype=int) for loop in self.boundary_loops]
        self.boundary_dofs = np.concatenate([np.zeros(0, int), *loops])
        outside = (self.boundary_dofs < 0) | (self.boundary_dofs >= n)
        if outside.any():
            raise MeshError(f"boundary loop vertex {self.boundary_dofs[outside][0]} "
                            f"is not one of the {n} vertices")

        def key(a, b):      # one integer per undirected edge
            return np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)
        keys, uses = np.unique(key(t, t[:, [1, 2, 0]]), return_counts=True)
        succ = np.concatenate([np.zeros(0, int), *(np.roll(loop, -1) for loop in loops)])
        if not np.array_equal(np.sort(key(self.boundary_dofs, succ)), keys[uses == 1]):
            raise MeshError("boundary_loops are not the boundary of the triangulation: "
                            "each edge of only one triangle must be in one loop, once")
        m = t.shape[0]
        for name, allowed in (("alpha", [(m,), (m, 2, 2)]), ("beta", [(m,)])):
            if getattr(self, name) is None:
                continue
            f = np.asarray(getattr(self, name), dtype=float)
            if f.shape not in allowed:
                raise MeshError(f"{name} has shape {f.shape}, not "
                                + " or ".join(map(str, allowed)) + ": one per triangle")
            if f.ndim == 3 and not np.array_equal(f, f.transpose(0, 2, 1)):
                raise MeshError(f"{name} must be symmetric")
            if not (np.linalg.eigvalsh(f) if f.ndim == 3 else f).min() > 0:
                raise MeshError(f"{name} must be uniformly positive"
                                + " definite" * (f.ndim == 3))
            setattr(self, name, f)

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
    """Delaunay mesh of a convex polygon with ~h boundary spacing.

    Raises MeshError unless the corners are at least 3 points of the plane
    that form a strictly convex, counterclockwise polygon: every turn is
    to the left, and the turns add up to one full turn.
    """
    corners = np.asarray(corners, dtype=float)
    if corners.ndim != 2 or corners.shape[0] < 3 or corners.shape[1] != 2:
        raise MeshError(f"a polygon needs at least 3 corners (x, y), "
                        f"not an array of shape {corners.shape}")
    e = np.roll(corners, -1, axis=0) - corners
    e_next = np.roll(e, -1, axis=0)
    turns = np.arctan2(e[:, 0] * e_next[:, 1] - e[:, 1] * e_next[:, 0],
                       np.einsum("ij,ij->i", e, e_next))
    if not (np.all(turns > 0) and turns.sum() < 3 * np.pi):
        raise MeshError("polygon corners must form a strictly convex polygon "
                        "in counterclockwise order")
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


def _boundary_edges(mesh):
    """Boundary edges (a, b, ell) in bdof numbering: the bdofs concatenate
    the loops, and edge a runs from bdof a to b, the next one of its loop."""
    a = np.arange(mesh.boundary_dofs.size)
    loops = np.split(a, np.cumsum([len(loop) for loop in mesh.boundary_loops])[:-1])
    b = np.concatenate([np.roll(loop, -1) for loop in loops])
    pts = mesh.vertices[mesh.boundary_dofs]
    return a, b, np.linalg.norm(pts[b] - pts, axis=1)


def boundary_mass_matrix(mesh):
    """Lumped-free 1-D mass of the boundary trace space (dense, bdof order)."""
    a, b, ell = _boundary_edges(mesh)
    return p1_mass(np.column_stack([a, b]), ell, a.size).toarray()


_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)


def check_trace_truncation(N_b, n_bdofs):
    """Raise SpectrumError unless N_b >= 1, MeshError unless the N_b trace
    modes fit in the ``n_bdofs`` boundary dofs."""
    if N_b < 1:
        raise SpectrumError(f"N_b={N_b} must be at least 1")
    if N_b > n_bdofs:
        raise MeshError(f"N_b={N_b} exceeds the {n_bdofs} boundary dofs")


def check_impedance_truncation(N_trunc, N_b):
    """Raise SpectrumError unless N_trunc impedance modes cover N_b trace modes."""
    if N_trunc < N_b:
        raise SpectrumError(f"impedance truncation {N_trunc} below N_b={N_b}")


def moment_matrix(mesh, spec, N_b):
    """T[n, k] = integral(Y_n phi_k dSigma) over boundary dofs k.

    Gauss-Legendre per boundary edge against the analytic arclength modes,
    so the moment matrix carries no grid error beyond quadrature decay.
    All edges of a loop are evaluated at once; the hat function of vertex i
    collects the falling half of edge i and the rising half of edge i - 1.
    """
    _, _, ell = _boundary_edges(mesh)
    check_truncation(N_b, spec.count)
    check_trace_truncation(N_b, ell.size)
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
    return T


def trace_projection(mesh, spec, N_b):
    """P = G^(-1/2) T: traces onto orthonormalized discrete boundary modes.

    T is the moment matrix and G = T Mb^-1 T^t the Gram of the boundary
    eigenmodes represented in the FEM trace space (Mb the boundary mass).
    The mass-inverse normalization makes P^t P converge to Mb cleanly: at
    N_b equal to the boundary dof count, P^t Zhat P with Zhat = z0 I is
    z0 Mb exactly.  Since G^(-1/2) is Hermitian positive, P^t Zhat P
    inherits the accretivity of Zhat.
    """
    T = moment_matrix(mesh, spec, N_b)
    G = T @ np.linalg.solve(boundary_mass_matrix(mesh), T.T)
    gvals, gvecs = np.linalg.eigh(G)
    if gvals.min() <= 1e-12 * gvals.max():
        raise MeshError("boundary modes degenerate in the trace space "
                        "(N_b too large for this mesh)")
    G_isqrt = (gvecs / np.sqrt(gvals)) @ gvecs.T
    return G_isqrt @ T


# ---------------------------------------------------------------------------
# pencil assembly and solve
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class AcousticPencil:
    """Matrices of P(lambda) = K - i lambda B_Z - lambda^2 M.

    Built from K, M, T and the bdofs alone: construction derives, once each,
    the Neumann Zhat (zeros), lam_scale, and the factor of A0 = K - shift^2 M
    with W and S0, which depend on the mesh only.  ``with_impedance`` plugs
    in Zhat and shares the rest.  B_Z = T^t Zhat T has rank at most N_b, the
    rows of T, and is never assembled: ``apply_B`` applies its factors.
    """

    spectrum: object
    K: sp.csr_matrix
    M: sp.csr_matrix
    trace: np.ndarray           # T, (N_b, n_bdofs)
    bdofs: np.ndarray           # vertex of every boundary dof, loop by loop
    Zhat: np.ndarray = field(init=False)        # (N_b, N_b)
    lam_scale: float = field(init=False)        # smallest nonzero Neumann eigenvalue
    shifted_lu: object = field(init=False)      # sparse LU of the real SPD A0
    W: np.ndarray = field(init=False)           # A0^-1 T^t, (n, N_b)
    S0: np.ndarray = field(init=False)          # T A0^-1 T^t, (N_b, N_b)

    def __post_init__(self):
        self.Zhat = np.zeros((self.N_b, self.N_b))
        self.lam_scale = neumann_scale(self)
        # SPD, so diagonal pivots on a symmetric ordering are stable
        self.shifted_lu = spla.splu((self.K - (self.shift ** 2).real * self.M).tocsc(),
                                    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                    options={"SymmetricMode": True})
        self.W = self.shifted_lu.solve(self.trace_scatter())
        self.S0 = self.trace @ self.W[self.bdofs]

    @property
    def n(self):
        return self.K.shape[0]

    @property
    def N_b(self):
        return self.trace.shape[0]

    @property
    def shift(self):
        """The shift-invert point i tau of every solve, tau = 0.6 lam_scale:
        ``solve_pencil`` works in mu = -i lambda at the real shift tau."""
        return 0.6j * self.lam_scale

    def trace_scatter(self):
        """T^t on all dofs: the (n, N_b) array whose row bdofs[k] is T[:, k]."""
        Tt = np.zeros((self.n, self.N_b))
        Tt[self.bdofs] = self.trace.T
        return Tt

    def with_impedance(self, Z):
        """A shallow copy of this pencil, sharing the factor of A0, with Zhat =
        Z compressed to N_b, real unless some kept entry is not
        (``exact_dtype``): a zero Z gives the Neumann pencil's float zeros."""
        check_impedance_truncation(Z.N_trunc, self.N_b)
        pencil = copy.copy(self)
        pencil.Zhat = exact_dtype(Z.matrix[:self.N_b, :self.N_b])
        return pencil

    def apply_B(self, x):
        """B_Z x = T^t (Zhat (T x[bdofs])) for x of shape (n,) or (n, k):
        O(n_bdofs N_b) work, zero off the bdofs."""
        out = np.zeros(x.shape, dtype=complex)
        out[self.bdofs] = self.trace.T @ (self.Zhat @ (self.trace @ x[self.bdofs]))
        return out

    def evaluate(self, lam, x):
        return self.K @ x - 1j * lam * self.apply_B(x) - lam ** 2 * (self.M @ x)


def check_geometry_match(mesh, spec):
    comps = spec.geometry.components
    if len(comps) != len(mesh.boundary_loops):
        raise MeshError("boundary component count differs between mesh and spectrum")
    for c, loop in zip(comps, mesh.boundary_loops):
        pts = mesh.vertices[np.asarray(loop)]
        if c.shape != pts.shape or not np.allclose(c, pts, atol=1e-10, rtol=0.0):
            raise MeshError("mesh boundary and spectrum geometry disagree "
                            "(vertices or arclengths differ)")


def default_N_b(mesh):
    """Boundary modes kept by default: half the dofs of all boundary loops,
    between 4 and 64, and never more than the dofs."""
    n = mesh.boundary_dofs.size
    return min(64, max(4, n // 2), n)


def assemble_pencil(mesh, spec, N_b=None):
    """The Neumann pencil K - lambda^2 M with its trace projection, in one
    ``AcousticPencil`` construction, which also factors A0.

    Everything it holds depends on the mesh only; ``with_impedance`` reuses
    it for every impedance operator.
    """
    check_geometry_match(mesh, spec)
    if N_b is None:
        N_b = default_N_b(mesh)
    return AcousticPencil(spectrum=spec, K=stiffness_matrix(mesh), M=mass_matrix_2d(mesh),
                          trace=trace_projection(mesh, spec, N_b), bdofs=mesh.boundary_dofs)


@dataclass(eq=False)
class EigenReport:
    """Eigenvalues of one pencil solve, by modulus.  Certified are those
    off the zero cluster (|lambda| > zero_tol) with residual <= RESIDUAL_TOL,
    and none when ``converged`` is False: ARPACK stopped early."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    converged: bool
    zero_tol: float

    def __post_init__(self):
        order = np.argsort(np.abs(self.eigenvalues), kind="stable")
        self.eigenvalues = self.eigenvalues[order]
        self.residuals = self.residuals[order]

    @property
    def zero_cluster_size(self):
        return int(np.sum(np.abs(self.eigenvalues) <= self.zero_tol))

    def _certified_mask(self):
        return (np.abs(self.eigenvalues) > self.zero_tol) & self.converged \
            & (self.residuals <= RESIDUAL_TOL)

    def certified(self):
        return self.eigenvalues[self._certified_mask()]

    def in_lower_halfplane(self):
        lam = self.certified()
        return bool(np.all(lam.imag <= HALFPLANE_TOL * (1 + np.abs(lam))))

    def real_within_tol(self):
        lam = self.certified()
        return bool(np.all(np.abs(lam.imag) <= HALFPLANE_TOL * (1 + np.abs(lam))))

    # the header of every eigenvalue CSV
    COLUMNS = ("re", "im", "residual", "q_factor", "certified", "sample_id")

    def rows(self, sample_id=0):
        """One row of ``COLUMNS`` per eigenvalue.

        q = |Re lambda| / (-2 Im lambda) for a decaying lambda, i.e. Im lambda
        below -HALFPLANE_TOL * (1 + |lambda|), the tolerance of the
        half-plane checks; inf for every other lambda.
        """
        out = []
        for lam, res, ok in zip(self.eigenvalues, self.residuals,
                                self._certified_mask()):
            decaying = lam.imag < -HALFPLANE_TOL * (1 + abs(lam))
            q = abs(lam.real) / (-2 * lam.imag) if decaying else math.inf
            out.append((lam.real, lam.imag, res, q, int(ok), sample_id))
        return out


def neumann_scale(pencil):
    """Magnitude of the smallest nonzero Neumann eigenvalue, sqrt scale: s =
    mean(diag K) / mean(diag M) places the shift and "nonzero", nu > 1e-8 s,
    so it scales with the mesh; sqrt(s) when no computed nu is nonzero."""
    k = min(6, pencil.n - 2)
    s = pencil.K.diagonal().mean() / pencil.M.diagonal().mean()
    nu = spla.eigsh(pencil.K, k=k, M=pencil.M, sigma=-1e-3 * s, which="LM",
                    v0=arpack_start(pencil.n), return_eigenvectors=False)
    nu = np.sort(nu)
    pos = nu[nu > 1e-8 * s]
    return float(np.sqrt(pos[0] if pos.size else s))


def solve_pencil(pencil, n_wanted=N_WANTED):
    """Eigenvalues of P(lambda) nearest the shift i tau, with their residuals
    on P.  Every impedance, Z = 0 included, takes one path: shift-invert
    Arnoldi at tau on the linearization A y = mu B_blk y in mu = -i lambda,
    since block elimination gives, for y = (p, q), (A - tau B_blk)^-1 B_blk y
    = (x, p + tau x) with x = -P(i tau)^-1 (B_Z p + M (q + tau p)).  By
    Woodbury from the shared factor of A0, with C = I + tau Zhat S0 and
    u = A0^-1 M (q + tau p), x = -(u + W C^-1 Zhat T (p - tau u)).  The
    operator has the dtype Zhat was made in, real (ARPACK's dnaupd and
    one-column LU solves) or complex, with real and imaginary parts as two
    real columns: W, T and M never meet a complex array.  A numerically singular
    C means P(i tau) is singular: SpectrumError.  If ARPACK stops before all
    k pairs converge, it returns only those that did, with ``converged=False``.
    """
    n, M, tau = pencil.n, pencil.M, pencil.shift.imag
    lu0, W, T, bdofs = pencil.shifted_lu, pencil.W, pencil.trace, pencil.bdofs
    C = np.eye(pencil.N_b) + tau * pencil.Zhat @ pencil.S0
    cond = np.linalg.cond(C)
    if not cond <= CAPACITANCE_COND_MAX:
        raise SpectrumError(f"P(shift) is singular: capacitance condition {cond:.2e}")
    G = np.linalg.solve(C, pencil.Zhat)
    dtype, k = G.dtype, G.itemsize // 8     # k real columns per vector

    def cols(v):        # (m,) of the operator's dtype as a real (m, k) view
        return np.ascontiguousarray(v).view(float).reshape(-1, k)

    def vec(X):
        return np.ascontiguousarray(X).view(dtype).ravel()

    def matvec(y):
        p, q = y[:n], y[n:]
        U = lu0.solve(cols(M @ (q + tau * p)))
        c = G @ vec(T @ (cols(p)[bdofs] - tau * U[bdofs]))
        x = -vec(U + W @ cols(c))
        return np.concatenate([x, p + tau * x])

    op = spla.LinearOperator(dtype=dtype, shape=(2 * n, 2 * n), matvec=matvec)
    converged = True
    try:
        w, Y = spla.eigs(op, k=min(n_wanted, 2 * n - 2), which="LM",
                         tol=ARPACK_TOL, v0=arpack_start(2 * n))
    except spla.ArpackNoConvergence as err:
        w, Y = err.eigenvalues, err.eigenvectors
        converged = False
        if w.size == 0:
            raise SpectrumError("eigen-solver returned no converged pairs") from err
    lam, X = 1j * (tau + 1.0 / w), Y[:n]     # eigenvectors are (p, mu p)
    res = np.linalg.norm(pencil.evaluate(lam, X), axis=0) / np.linalg.norm(X, axis=0)
    return EigenReport(eigenvalues=lam, residuals=res, converged=converged,
                       zero_tol=ZERO_TOL * pencil.lam_scale)


# ---------------------------------------------------------------------------
# m-dissipativity verification
# ---------------------------------------------------------------------------

def _energy_reduction(pencil):
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
    keep = kappa > 1e-10 * max(kappa.max(), 1.0)
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
# Monte Carlo
# ---------------------------------------------------------------------------

def monte_carlo_spectrum(mesh, spec, rspec, n_samples=N_SAMPLES, seed0=0, N_b=None,
                         n_wanted=N_WANTED, workers=1):
    """Ensemble of pencil solves over sampled random impedances.

    Per sample: zeta drawn by the counter-based sampler, mapped to boundary
    operator coefficients (field part skew, kernel part nonnegative),
    compressed to N_b modes, solved, classified.  Failures are counted and
    the run continues; so are solved samples that keep only the pairs
    ARPACK converged before it stopped (``n_unconverged``).  A kernel-weight
    count that does not match the boundary's b0 fails every sample alike, so
    it raises ValueError before any sampling.

    Every sample shares the mesh's one factor of A0.  The samples are
    solved by :func:`~acouz.boundary.forked_map` in ``workers`` processes
    forked after that set-up: each child inherits the assembled pencil, its
    SuperLU factor, W, S0 and the triple-product tensor, and returns one
    result dict per sample, in sample order, so the worker count does not
    change the results.  A child that dies breaks the pool, which raises.
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
                "unconverged": not report.converged}, None

    outcomes = forked_map(attempt, range(n_samples), workers)
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
