"""Paper checks that no runner reaches yet, kept for the tests that check
them: mesh refinement families of the disk with eigenvalue tracking across
them (ROADMAP Direction 6), and the case analysis of the L^q multiplier
embedding theorem (Direction 5).

A runner that needs one of these moves it back into ``acouz``; the tests
then import it from there.  ``tests/test_reach.py`` fails while a name is
defined both here and in the package.
"""

import math
from dataclasses import dataclass

import numpy as np

from acouz.acoustic import DomainMesh, MeshError, assemble_pencil, disk_mesh, solve_pencil
from acouz.boundary import midpoint_subdivide


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

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
        pencil = assemble_pencil(mesh, spec, N_b=N_b)
        if z_maker is not None:
            pencil = pencil.with_impedance(z_maker(spec))
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


# ---------------------------------------------------------------------------
# L^q embedding case analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LqEmbeddingQuery:
    """Exponent bookkeeping for L^q -> multiplier-space embeddings."""

    d: int
    s1: float
    s2: float
    q: float    # may be math.inf

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if not (0.0 <= self.s1 <= 1.0 and 0.0 <= self.s2 <= 1.0):
            raise ValueError("exponents s1, s2 must lie in [0, 1]")
        if not (self.q >= 1.0):
            raise ValueError("q must lie in [1, inf]")

    @property
    def kappa(self):
        return (2.0 * self.s1 / (self.d - 1), 2.0 * self.s2 / (self.d - 1))

    @property
    def pi(self):
        k1, k2 = self.kappa
        return ((1.0 - k1) / 2.0, (1.0 - k2) / 2.0)

    @property
    def pi0(self):
        return (self.s1 + self.s2) / (self.d - 1)


def lq_embedding_case(query: LqEmbeddingQuery, eq_tol=1e-12):
    """First sufficient condition under which L^q multiplies H^{s1} -> H^{-s2}.

    Pure arithmetic case analysis; returns ``{"case": "none", "embeds":
    "unknown"}`` when no sufficient condition applies (which does not assert
    a non-embedding).
    """
    k1, k2 = query.kappa
    q = query.q
    ssum = query.s1 + query.s2
    q_crit = (query.d - 1) / ssum if ssum > 0 else math.inf

    if k1 < 1 and k2 < 1 and q >= q_crit:
        return {"case": "i", "embeds": True}
    if k1 <= 1 and k2 <= 1 and (k1 - 1) * (k2 - 1) == 0 and q > q_crit:
        return {"case": "ii", "embeds": True}
    if min(k1, k2) < 1 < max(k1, k2):
        q_iii = 2.0 * (query.d - 1) / (query.d - 1 + 2.0 * min(query.s1, query.s2))
        if math.isfinite(q) and abs(q - q_iii) <= eq_tol:
            return {"case": "iii", "embeds": True}
    if k1 + k2 > 2 and (k1 - 1) * (k2 - 1) == 0 and q > 1:
        return {"case": "iv", "embeds": True}
    if k1 > 1 and k2 > 1 and math.isfinite(q) and abs(q - 1.0) <= eq_tol:
        return {"case": "v", "embeds": True}
    return {"case": "none", "embeds": "unknown"}
