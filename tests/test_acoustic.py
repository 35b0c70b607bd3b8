import copy
import math
import multiprocessing
import os
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from acouz import acoustic as ac
from acouz import boundary as bd
from acouz import harness, shapes
from acouz.fgf import RandomImpedanceSpec, impedance_coefficients, sample_random_impedance
from acouz.impedance import (
    cayley, impedance_from_config, is_accretive, matrix_impedance, multiplier_impedance,
    param_block, spectrum_modes, zero_impedance,
)
from acouz.multipliers import TripleProductTensor, psd_tolerance

from oracles import (
    curve_mode_values, dict_uniform_refine, gradient_stiffness, lambda_form_solve,
)
from studies import circle_projector, disk_mesh_family, refinement_study

J1P_1 = 1.8411837813406593      # first zero of J_1': the smallest Neumann disk eigenvalue


def constant_z(spec, N_trunc, z0=1.0):
    block = param_block({"impedance": {"kind": "constant", "z0": z0}}, "impedance")
    return impedance_from_config(spec, block, N_trunc=N_trunc)


def random_z(spec, N_b, kernel_weight, seed=0, sign=1.0, tensor=None):
    """sign * Z(zeta) for a random zeta: skew for kernel_weight 0, accretive
    for a positive one when sign is +1."""
    rspec = RandomImpedanceSpec(c=1.0, s=0.3,
                                kernel_weights=(kernel_weight,) * spec.b0)
    phi = impedance_coefficients(sample_random_impedance(spec, rspec, spec.count, seed))
    return multiplier_impedance(bd.SpectralFunction(spec, sign * phi.coeffs), N_b,
                                tensor=tensor or TripleProductTensor(spec))


def accretive_random_z(spec, N_b):
    return random_z(spec, N_b, 1.0)


def skew_random_z(spec, N_b):
    return random_z(spec, N_b, 0.0)


def per_edge_moment_matrix(mesh, spec, N_b):
    """T[n, k] by one Gauss-Legendre rule per boundary edge, edge by edge:
    the loop that ``moment_matrix`` replaced, kept as its reference."""
    bdofs = [int(x) for loop in mesh.boundary_loops for x in loop]
    pos = {d: i for i, d in enumerate(bdofs)}
    x, w = np.polynomial.legendre.leggauss(8)
    T = np.zeros((N_b, len(bdofs)))
    for comp, loop in enumerate(mesh.boundary_loops):
        pts = mesh.vertices[np.asarray(loop)]
        seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        scum = np.concatenate([[0.0], np.cumsum(seg)])
        for i in range(len(loop)):
            a, b = int(loop[i]), int(loop[(i + 1) % len(loop)])
            sq = scum[i] + 0.5 * seg[i] * (x + 1.0)
            wq = 0.5 * seg[i] * w
            Y = curve_mode_values(spec, comp, sq)[:N_b]
            lam_b = (sq - scum[i]) / seg[i]
            T[:, pos[a]] += Y @ (wq * (1.0 - lam_b))
            T[:, pos[b]] += Y @ (wq * lam_b)
    return T, bdofs


def assembled_B(pencil):
    """B_Z as a sparse n x n matrix: the block T^t Zhat T on the bdofs."""
    idx = pencil.bdofs
    block = pencil.trace.T @ pencil.Zhat @ pencil.trace
    return sp.coo_matrix((block.ravel(), (np.repeat(idx, idx.size), np.tile(idx, idx.size))),
                         shape=(pencil.n, pencil.n)).tocsr()


def block_lu_eigenvalues(pencil, n_wanted):
    """Shift-invert Arnoldi on the 2n x 2n linearization with B_Z assembled,
    factored as one block LU: the path that ``solve_pencil`` replaced, kept
    as its reference."""
    n = pencil.n
    shift = 0.6j * pencil.lam_scale
    A_blk = sp.bmat([[pencil.K, None], [None, pencil.M]], format="csc").astype(complex)
    B_blk = sp.bmat([[1j * assembled_B(pencil), pencil.M], [pencil.M, None]],
                    format="csc").astype(complex)
    lu = spla.splu((A_blk - shift * B_blk).tocsc())
    op = spla.LinearOperator(dtype=complex, shape=(2 * n, 2 * n),
                             matvec=lambda x: lu.solve(B_blk @ x))
    w = spla.eigs(op, k=n_wanted, which="LM", tol=1e-10,
                  v0=bd.arpack_start(2 * n), return_eigenvectors=False)
    return shift + 1.0 / w


def certificate_tol(pencil, ver):
    """The slack the harness grants omega_h for an accretive impedance."""
    return psd_tolerance(ver["s_norm"] * np.linalg.norm(pencil.Zhat, 2))


def dense_trace_gram(pencil):
    """S = T M^-1 T^t by a dense solve with the trace scattered to all dofs."""
    Tt = np.zeros((pencil.n, pencil.N_b))
    Tt[pencil.bdofs] = pencil.trace.T
    return Tt.T @ np.linalg.solve(pencil.M.toarray(), Tt)


def folded_distance(got, ref):
    """Largest distance from an eigenvalue in ``got`` to the nearest in
    ``ref``, relative to its modulus, both folded to |Re| + i Im (the
    pencils are real: lambda and -conj(lambda) pair up)."""
    g = np.abs(got.real) + 1j * got.imag
    r = np.abs(ref.real) + 1j * ref.imag
    return (np.abs(g[:, None] - r[None, :]).min(axis=1) / np.abs(g)).max()


def regular_polygon_area(n, r):
    return 0.5 * n * r ** 2 * math.sin(2 * math.pi / n)


class TestEigenReport:
    def test_q_factor_uses_halfplane_tolerance(self):
        # a real eigenvalue with round-off in Im is not decaying: q = inf;
        # the pairs of an unconverged solve are written but not certified
        lam = np.array([1 - 1e-15j, 2 - 0.5j, 3 - 1j])
        for converged, certified in ((True, [1, 1, 1]), (False, [0, 0, 0])):
            report = ac.EigenReport(eigenvalues=lam, residuals=np.zeros(3),
                                    converged=converged, zero_tol=1e-7)
            rows = report.rows(sample_id=4)
            assert [r[3] for r in rows] == [math.inf, 2.0, 1.5]
            assert [r[4] for r in rows] == certified
            assert all(r[5] == 4 for r in rows)


class TestBoundaryLoops:
    def test_reversed_loop_accepted(self):
        # the spectrum does not depend on the loop's orientation
        mesh = ac.disk_mesh(0.3)
        d = mesh.to_dict()
        d["boundary_loops"] = [d["boundary_loops"][0][::-1]]
        flipped = ac.DomainMesh.from_dict(d)
        assert np.array_equal(flipped.boundary_dofs, mesh.boundary_dofs[::-1])
        eigenvalues = []
        for m in (mesh, flipped):
            spec = bd.build_curve_spectrum(m.boundary_geometry(), 64)
            base = ac.assemble_pencil(m, spec)
            pencil = base.with_impedance(constant_z(spec, base.N_b))
            eigenvalues.append(ac.solve_pencil(pencil).certified())
        assert eigenvalues[0].size == eigenvalues[1].size >= 10
        assert folded_distance(*eigenvalues) <= 1e-10


class TestConvexPolygonMesh:
    """Corners that are not a strictly convex counterclockwise polygon raise
    MeshError: two corners or collinear ones ended in a QhullError, and
    clockwise ones built a mesh with no interior vertex."""

    SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]

    def test_counterclockwise_square_has_interior_vertices(self):
        mesh = ac.convex_polygon_mesh(self.SQUARE, 0.2)
        assert mesh.n_vertices == 34 and len(mesh.boundary_loops[0]) == 20

    @pytest.mark.parametrize("corners", [
        [[0, 0], [1, 0]],
        [[0, 0], [1, 0], [2, 0]],
        SQUARE[::-1],
        [[0, 0], [1, 0], [1, 1], [1, 1], [0, 1]],
        [[math.cos(0.8 * math.pi * k), math.sin(0.8 * math.pi * k)] for k in range(5)],
        [0.0, 1.0, 2.0],
    ], ids=["two_corners", "collinear", "clockwise", "repeated_corner", "pentagram",
            "not_points"])
    def test_rejected(self, corners):
        with pytest.raises(ac.MeshError):
            ac.convex_polygon_mesh(corners, 0.2)


class TestAssemblyOracles:
    @pytest.mark.parametrize("make_mesh", [lambda: ac.disk_mesh(0.12),
                                           lambda: ac.annulus_mesh(0.12)],
                             ids=["disk", "annulus"])
    def test_moment_matrix_matches_per_edge_loop(self, make_mesh):
        mesh = make_mesh()
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        N_b = ac.default_N_b(mesh)
        T = ac.moment_matrix(mesh, spec, N_b)
        T_ref, bdofs_ref = per_edge_moment_matrix(mesh, spec, N_b)
        assert list(mesh.boundary_dofs) == bdofs_ref
        assert np.abs(T - T_ref).max() <= 1e-13 * np.abs(T_ref).max()

    def test_full_trace_reproduces_boundary_mass(self):
        # at N_b = n_bdofs the docstring's identity P^t (z0 I) P = z0 Mb
        mesh = ac.disk_mesh(0.3)
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        n_bdofs = sum(len(loop) for loop in mesh.boundary_loops)
        P = ac.trace_projection(mesh, spec, n_bdofs)
        Mb = ac.boundary_mass_matrix(mesh)
        assert P.shape == Mb.shape == (mesh.boundary_dofs.size,) * 2
        z0 = 1.0 + 0.5j
        PZP = P.T @ (z0 * np.eye(n_bdofs)) @ P
        assert np.abs(PZP - z0 * Mb).max() <= 1e-12 * np.abs(Mb).max()

    @pytest.mark.parametrize("alpha", [None, "scalar", "tensor"])
    def test_stiffness_kills_constants(self, alpha):
        mesh = ac.annulus_mesh(0.2)
        m = mesh.triangles.shape[0]
        if alpha == "scalar":
            mesh.alpha = np.linspace(0.5, 2.0, m)
        elif alpha == "tensor":
            mesh.alpha = np.tile([[2.0, 0.3], [0.3, 1.0]], (m, 1, 1))
        K = ac.stiffness_matrix(mesh)
        assert np.abs(K @ np.ones(mesh.n_vertices)).max() <= 1e-12 * abs(K).max()
        assert abs(K - K.T).max() <= 1e-14 * abs(K).max()

    @pytest.mark.parametrize("alpha", [None, "scalar", "tensor"])
    def test_stiffness_matches_gradient_form(self, alpha):
        # the edge form with alpha / det(alpha) against inv(alpha) between
        # barycentric gradients
        mesh = ac.disk_mesh(0.06)
        m = mesh.triangles.shape[0]
        rng = np.random.default_rng(1)
        if alpha == "scalar":
            mesh.alpha = rng.uniform(0.5, 2.0, m)
        elif alpha == "tensor":
            a = rng.uniform(-0.5, 0.5, (m, 2, 2))
            mesh.alpha = np.eye(2) + a @ a.transpose(0, 2, 1)
        K = ac.stiffness_matrix(mesh)
        ref = gradient_stiffness(mesh)
        assert abs(K - ref).max() <= 1e-14 * abs(ref).max()

    def test_refinement_matches_dict_split(self):
        family = disk_mesh_family(0.25, 3)
        proj = circle_projector(1.0)
        for coarse, fine in zip(family, family[1:]):
            ref = dict_uniform_refine(coarse, proj)
            assert np.array_equal(fine.vertices, ref.vertices)
            assert np.array_equal(fine.triangles, ref.triangles)
            for loop, ref_loop in zip(fine.boundary_loops, ref.boundary_loops, strict=True):
                assert np.array_equal(loop, ref_loop)

    def test_masses_integrate_one(self):
        disk, annulus = ac.disk_mesh(0.2), ac.annulus_mesh(0.2)
        n_disk = len(disk.boundary_loops[0])
        n_ann = len(annulus.boundary_loops[0])
        areas = [regular_polygon_area(n_disk, 1.0),
                 regular_polygon_area(n_ann, 1.0) - regular_polygon_area(n_ann, 0.5)]
        for mesh, area in zip((disk, annulus), areas):
            one = np.ones(mesh.n_vertices)
            assert one @ ac.mass_matrix_2d(mesh) @ one == pytest.approx(area, rel=1e-13)
            Mb = ac.boundary_mass_matrix(mesh)
            one_b = np.ones(mesh.boundary_dofs.size)
            length = mesh.boundary_geometry().component_measures.sum()
            assert one_b @ Mb @ one_b == pytest.approx(length, rel=1e-13)


class TestNeumannDisk:
    def test_converges_to_bessel_root(self):
        levels = [(m, bd.build_curve_spectrum(m.boundary_geometry(), 64))
                  for m in disk_mesh_family(0.25, 3)]
        table = refinement_study(levels, n_track=1, n_wanted=6, oracle=[J1P_1])
        assert table["errors"][-1, 0] < 2e-3
        assert np.all(table["orders"][:, 0] >= 1.6)


class TestWithImpedance:
    def test_scatter_matches_boundary_block(self, disk_setup):
        # B_Z applied through its rank-N_b factor is the dense T^t Zhat T on
        # the bdofs and zero elsewhere
        mesh, spec = disk_setup
        pencil = ac.assemble_pencil(mesh, spec).with_impedance(
            constant_z(spec, 40, z0=1.0 + 0.5j))
        idx = pencil.bdofs
        dense = pencil.trace.T @ pencil.Zhat @ pencil.trace
        applied = pencil.apply_B(np.eye(pencil.n)[:, idx])
        assert np.abs(applied[idx] - dense).max() <= 1e-15 * np.abs(dense).max()
        assert not np.any(np.delete(applied, idx, axis=0))
        x = np.random.default_rng(0).standard_normal(pencil.n)
        ref = assembled_B(pencil) @ x
        assert np.abs(pencil.apply_B(x) - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_zero_impedance_is_neumann(self, disk_setup):
        mesh, spec = disk_setup
        base = ac.assemble_pencil(mesh, spec)
        assert base.Zhat.shape == (base.N_b, base.N_b) and not np.any(base.Zhat)
        assert not np.any(base.apply_B(np.ones(base.n)))
        # a zero Z takes the path of every Z and gives the same float zeros
        zero = base.with_impedance(zero_impedance(spec, base.N_b))
        assert zero.Zhat.dtype == base.Zhat.dtype == np.float64
        assert np.array_equal(zero.Zhat, base.Zhat)
        for name in ("K", "M", "trace", "bdofs", "shifted_lu", "W", "S0"):
            assert getattr(zero, name) is getattr(base, name)

    def test_rejects_short_truncation(self, disk_setup):
        mesh, spec = disk_setup
        base = ac.assemble_pencil(mesh, spec)
        with pytest.raises(bd.SpectrumError):
            base.with_impedance(constant_z(spec, base.N_b - 1))

    def test_geometry_parts_shared(self, disk_setup):
        mesh, spec = disk_setup
        base = ac.assemble_pencil(mesh, spec)
        pencil = base.with_impedance(constant_z(spec, base.N_b))
        for name in ("K", "M", "trace", "lam_scale"):
            assert getattr(pencil, name) is getattr(base, name)

    def test_constant_impedance_dissipative(self, disk_setup):
        mesh, spec = disk_setup
        base = ac.assemble_pencil(mesh, spec)
        pencil = base.with_impedance(constant_z(spec, base.N_b))
        report = ac.solve_pencil(pencil, n_wanted=10)
        assert report.certified().size >= 8
        assert np.all(report.certified().imag < 0)
        ver = ac.verify_mdissipativity(pencil, report)
        assert ver["halfplane_ok"]
        assert ver["omega_h"] <= certificate_tol(pencil, ver)


@pytest.fixture(scope="module", params=["disk", "annulus"])
def certificate_base(request):
    """The acoustic benchmark's small pencils: disk h=0.12 at the default N_b
    and annulus h=0.12 at N_b=26, with their boundary spectra."""
    if request.param == "disk":
        mesh, N_b = ac.disk_mesh(0.12), None
    else:
        mesh, N_b = ac.annulus_mesh(0.12), 26
    spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
    return ac.assemble_pencil(mesh, spec, N_b=N_b)


def certify(pencil):
    return ac.verify_mdissipativity(pencil, ac.solve_pencil(pencil, n_wanted=10))


class TestCertificate:
    """omega_h against the dense energy-coordinate operator A_hat."""

    @pytest.mark.parametrize("make_z, dissipative", [
        (lambda spec, N_b: constant_z(spec, N_b, 1.0), True),
        (lambda spec, N_b: constant_z(spec, N_b, -0.5), False),
        (lambda spec, N_b: random_z(spec, N_b, 1.0, sign=-1.0), False),
    ], ids=["z0=1", "z0=-0.5", "negated_sample"])
    def test_matches_dense_numerical_range(self, certificate_base, make_z, dissipative):
        pencil = certificate_base.with_impedance(
            make_z(certificate_base.spectrum, certificate_base.N_b))
        omega = certify(pencil)["omega_h"]
        A = ac._energy_reduction(pencil)
        dense = np.linalg.eigvalsh((A - A.conj().T) / 2j)[-1]
        assert abs(omega - dense) <= 1e-10 * max(1.0, abs(omega))
        assert (omega == 0.0) == dissipative

    def test_dense_resolvent_within_shifted_bound(self, certificate_base):
        pencil = certificate_base.with_impedance(
            constant_z(certificate_base.spectrum, certificate_base.N_b, -0.5))
        omega = certify(pencil)["omega_h"]
        A = ac._energy_reduction(pencil)
        scale = np.linalg.norm(A, 2)
        I = np.eye(A.shape[0])
        for re in np.linspace(0.0, 1.0, 3) * scale:
            for im in omega + np.geomspace(0.25, 1.0, 3) * scale:
                smin = np.linalg.svd(A - (re + 1j * im) * I, compute_uv=False)[-1]
                assert 1.0 / smin <= (1.0 + 1e-10) / (im - omega)

    @pytest.mark.parametrize("z0", [1.0, -0.5, -2.0])
    def test_constant_impedance_scales_trace_gram(self, certificate_base, z0):
        pencil = certificate_base.with_impedance(
            constant_z(certificate_base.spectrum, certificate_base.N_b, z0))
        ver = certify(pencil)
        s_max = np.linalg.eigvalsh(dense_trace_gram(pencil))[-1]
        assert ver["s_norm"] == pytest.approx(s_max, rel=1e-12)
        assert ver["omega_h"] == pytest.approx(max(0.0, -z0) * s_max, rel=1e-12)

    def test_zero_iff_accretive(self, certificate_base):
        # Sylvester: R^t Herm(Zhat) R and Herm(Zhat) share their inertia
        spec, N_b = certificate_base.spectrum, certificate_base.N_b
        tensor = TripleProductTensor(spec)
        verdicts = []
        for kernel_weight in (0.0, 1.0):
            for seed in range(2):
                for sign in (1.0, -1.0):
                    Z = random_z(spec, N_b, kernel_weight, seed, sign, tensor)
                    pencil = certificate_base.with_impedance(Z)
                    ver = certify(pencil)
                    accretive = is_accretive(Z)["nonneg"]
                    assert (ver["omega_h"] <= certificate_tol(pencil, ver)) == accretive
                    verdicts.append(accretive)
        assert verdicts == [True] * 4 + [True, False] * 2

    def test_scales_past_the_dense_oracle(self):
        mesh = disk_mesh_family(0.25, 4)[-1]
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        base = ac.assemble_pencil(mesh, spec)
        ver = certify(base.with_impedance(constant_z(spec, base.N_b)))
        assert base.n == 3269
        assert ver["omega_h"] == 0.0
        assert ver["halfplane_ok"]


class TestDefaultNb:
    def test_counts_every_boundary_loop(self):
        mesh = ac.annulus_mesh(0.3)
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        n_bdofs = sum(len(loop) for loop in mesh.boundary_loops)
        assert len(mesh.boundary_loops) == 2
        assert ac.default_N_b(mesh) == n_bdofs // 2
        assert ac.assemble_pencil(mesh, spec).N_b == n_bdofs // 2

    def test_capped_at_the_boundary_dofs(self, tmp_path):
        # a triangle at h 2.0 has 3 boundary dofs: the floor of 4 asked for
        # N_b = 4, and a config that sets no N_b failed validate; on 3
        # vertices neumann_scale finds no nonzero eigenvalue and takes its
        # fallback, and every assertion still passes
        corners = [[0, 0], [1, 0], [0, 1]]
        mesh = ac.convex_polygon_mesh(corners, 2.0)
        assert mesh.boundary_dofs.size == ac.default_N_b(mesh) == 3
        cfg = harness.ExperimentConfig.from_dict({
            "experiment": "acoustic_spectrum",
            "mesh": {"kind": "polygon", "corners": corners, "h": 2.0},
            "params": {"impedance": {"kind": "constant"}}})
        assert harness.validate_config(cfg) == []
        manifest = harness.run(cfg, str(tmp_path))
        assert len(manifest.assertions) == 4 and manifest.passed, manifest.assertions

    def test_annulus_default_config_passes(self, tmp_path):
        cfg = harness.ExperimentConfig.from_dict({
            "experiment": "acoustic_spectrum",
            "mesh": {"kind": "annulus", "h": 0.3},
            "params": {"impedance": {"kind": "constant"}}})
        manifest = harness.run(cfg, str(tmp_path))
        names = {a["name"] for a in manifest.assertions}
        assert {"residuals_certified", "halfplane_confinement",
                "resolvent_bound"} <= names
        assert manifest.passed, manifest.assertions


class TestSpectrumSize:
    # a spectrum past the modes a compression reads changes no bit of a
    # result, so the harness builds only those (impedance.spectrum_modes)
    def test_constant_impedance_reads_N_b_modes(self):
        mesh = ac.disk_mesh(0.3)
        N_b = ac.default_N_b(mesh)
        eigenvalues = []
        for count in (N_b, 160):
            spec = bd.build_curve_spectrum(mesh.boundary_geometry(), count)
            pencil = ac.assemble_pencil(mesh, spec).with_impedance(constant_z(spec, N_b))
            eigenvalues.append(ac.solve_pencil(pencil).eigenvalues)
        assert np.array_equal(*eigenvalues)

    def test_monte_carlo_field_reads_its_compression_modes(self):
        mesh = ac.disk_mesh(0.3)
        N_b = ac.default_N_b(mesh)
        rspec = RandomImpedanceSpec(c=1.0, s=0.3, kernel_weights=(1.0,))
        clouds = []
        for count in (spectrum_modes(None, N_b, 1), 160):
            spec = bd.build_curve_spectrum(mesh.boundary_geometry(), count)
            out = ac.monte_carlo_spectrum(mesh, spec, rspec, n_samples=2)
            assert out["summary"]["n_solved"] == 2
            clouds.append(np.concatenate([s["eigenvalues"] for s in out["samples"]]))
        assert np.array_equal(*clouds)


class TestMonteCarlo:
    def test_sample_equals_standalone_solve(self):
        mesh = ac.disk_mesh(0.3)
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        rspec = RandomImpedanceSpec(c=1.0, s=0.3)
        out = ac.monte_carlo_spectrum(mesh, spec, rspec, n_samples=3, seed0=5)
        forked = ac.monte_carlo_spectrum(mesh, spec, rspec, n_samples=3,
                                         seed0=5, workers=2)
        base = ac.assemble_pencil(mesh, spec)
        tensor = TripleProductTensor(spec)
        assert out["summary"]["fraction_real_spectrum"] == 1.0
        for sample, other in zip(out["samples"], forked["samples"], strict=True):
            zeta = sample_random_impedance(spec, rspec, spec.count, sample["seed"])
            Z = multiplier_impedance(impedance_coefficients(zeta), base.N_b,
                                     tensor=tensor)
            report = ac.solve_pencil(base.with_impedance(Z), n_wanted=14)
            assert np.array_equal(report.eigenvalues, sample["eigenvalues"])
            assert np.array_equal(other["eigenvalues"], sample["eigenvalues"])

    def test_shared_factor_under_thread_contention(self):
        # every sample solves with the mesh's one factor of A0, which each
        # forked worker inherits: one process per sample, and a short switch
        # interval in the parent that feeds them, must not change a bit
        mesh = ac.disk_mesh(0.3)
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        rspec = RandomImpedanceSpec(c=1.0, s=0.3, kernel_weights=(1.0,))
        serial = ac.monte_carlo_spectrum(mesh, spec, rspec, n_samples=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = ac.monte_carlo_spectrum(mesh, spec, rspec, n_samples=8,
                                               workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert threaded["summary"]["n_solved"] == 8
        for a, b in zip(serial["samples"], threaded["samples"], strict=True):
            assert np.array_equal(a["eigenvalues"], b["eigenvalues"])

    @pytest.mark.parametrize("kernel_weights", [(), (1.0,)],
                             ids=["skew", "accretive"])
    def test_worker_count_changes_no_bit(self, kernel_weights):
        mesh = ac.disk_mesh(0.3)
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        rspec = RandomImpedanceSpec(c=1.0, s=0.3, kernel_weights=kernel_weights)
        serial, *forked = [ac.monte_carlo_spectrum(mesh, spec, rspec, n_samples=5,
                                                   seed0=2, workers=workers)
                           for workers in (1, 2, 3)]
        assert serial["summary"]["n_solved"] == 5
        for out in forked:
            assert out["summary"] == serial["summary"]
            for a, b in zip(serial["samples"], out["samples"], strict=True):
                assert a.keys() == b.keys()
                for key in a:   # arrays and rows by their bytes, NaN included
                    assert np.asarray(a[key]).tobytes() == np.asarray(b[key]).tobytes()

    def test_pool_no_larger_than_the_sample_count(self, monkeypatch):
        started = []

        class Recording(bd.ProcessPoolExecutor):
            def __exit__(self, *exc):
                started.append(len(multiprocessing.active_children()))
                return super().__exit__(*exc)

        monkeypatch.setattr(bd, "ProcessPoolExecutor", Recording)
        mesh = ac.disk_mesh(0.3)
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        out = ac.monte_carlo_spectrum(mesh, spec, RandomImpedanceSpec(c=1.0, s=0.3),
                                      n_samples=3, workers=8)
        assert out["summary"]["n_solved"] == 3
        [children] = started
        assert 1 <= children <= 3

    def test_sample_raising_in_a_child_is_a_failure(self, monkeypatch):
        def raising(pencil, n_wanted=12):
            raise RuntimeError(f"planted in process {os.getpid()}")

        monkeypatch.setattr(ac, "solve_pencil", raising)
        mesh = ac.disk_mesh(0.3)
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        out = ac.monte_carlo_spectrum(mesh, spec, RandomImpedanceSpec(c=1.0, s=0.3),
                                      n_samples=3, workers=2)
        summary = out["summary"]
        assert summary["n_solved"] == 0 and out["samples"] == []
        assert [f["sample"] for f in summary["failures"]] == [0, 1, 2]
        pids = {int(f["error"].split()[-1]) for f in summary["failures"]}
        assert os.getpid() not in pids

    def test_one_factor_per_mesh(self, monkeypatch):
        calls = []

        class CountingSparseLinalg:
            """scipy.sparse.linalg as the acoustic module sees it, splu counted."""

            def splu(self, *args, **kwargs):
                calls.append(args[0].shape)
                return spla.splu(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(spla, name)

        monkeypatch.setattr(ac, "spla", CountingSparseLinalg())
        mesh = ac.disk_mesh(0.3)
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        out = ac.monte_carlo_spectrum(mesh, spec, RandomImpedanceSpec(c=1.0, s=0.3),
                                      n_samples=5)
        assert out["summary"]["n_solved"] == 5
        assert calls == [(mesh.n_vertices, mesh.n_vertices)]

    def test_unconverged_samples_counted(self, monkeypatch):
        eigs, calls = spla.eigs, []

        def eigs_failing_second(*args, **kwargs):
            calls.append(1)
            w, Y = eigs(*args, **kwargs)
            if len(calls) == 2:
                raise spla.ArpackNoConvergence("no convergence", w[:5], Y[:, :5])
            return w, Y

        monkeypatch.setattr(ac.spla, "eigs", eigs_failing_second)
        mesh = ac.disk_mesh(0.3)
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        out = ac.monte_carlo_spectrum(mesh, spec, RandomImpedanceSpec(c=1.0, s=0.3),
                                      n_samples=3)
        summary = out["summary"]
        assert summary["n_solved"] == 3 and summary["failures"] == []
        assert summary["n_unconverged"] == 1
        assert out["samples"][1]["unconverged"]
        assert out["samples"][1]["eigenvalues"].size == 5


def singular_capacitance_z(pencil):
    """Zhat = -u u^t / (tau u^t S0 u), tau = 0.6 lam_scale: the capacitance
    C = I + tau Zhat S0 maps u to zero, so P(shift) is singular.  Zhat is
    real, so the solve takes the real path."""
    u = np.ones(pencil.N_b)
    Zhat = -np.outer(u, u) / (0.6 * pencil.lam_scale * (u @ pencil.S0 @ u))
    return matrix_impedance(pencil.spectrum, Zhat)


class TestSingularShift:
    def test_solve_raises(self):
        mesh = ac.disk_mesh(0.3)
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        base = ac.assemble_pencil(mesh, spec)
        pencil = base.with_impedance(singular_capacitance_z(base))
        with pytest.raises(bd.SpectrumError, match="singular"):
            ac.solve_pencil(pencil)

    def test_monte_carlo_counts_a_failure(self, monkeypatch):
        mesh = ac.disk_mesh(0.3)
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        base = ac.assemble_pencil(mesh, spec)
        build, calls = ac.multiplier_impedance, []

        def singular_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                return singular_capacitance_z(base)
            return build(*args, **kwargs)

        monkeypatch.setattr(ac, "multiplier_impedance", singular_second)
        out = ac.monte_carlo_spectrum(mesh, spec, RandomImpedanceSpec(c=1.0, s=0.3),
                                      n_samples=3)
        summary = out["summary"]
        assert summary["n_solved"] == 2
        assert [f["sample"] for f in summary["failures"]] == [1]
        assert "singular" in summary["failures"][0]["error"]


QUAD = [[0, 0], [1, 0], [1.2, 0.8], [0.1, 1]]


class TestOneSolver:
    # Z = 0 and a skew Z keep lambda = 0 a pair, so one nonzero fewer; zero
    # and constant Z are real, the FGF samples complex
    @pytest.mark.parametrize("make_mesh, make_z, n_nonzero", [
        (lambda: ac.disk_mesh(0.12), zero_impedance, 12),
        (lambda: ac.disk_mesh(0.12), constant_z, 13),
        (lambda: ac.convex_polygon_mesh(QUAD, 0.08), accretive_random_z, 13),
        (lambda: ac.disk_mesh(0.12), skew_random_z, 12),
        (lambda: ac.annulus_mesh(0.12), constant_z, 13),
    ], ids=["disk_zero", "disk_constant", "polygon_accretive", "disk_skew",
            "annulus_constant"])
    def test_matches_block_lu(self, make_mesh, make_z, n_nonzero):
        # the real form in mu against the complex lambda form it replaced
        # and the assembled block LU before that
        mesh = make_mesh()
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        base = ac.assemble_pencil(mesh, spec)
        Z = make_z(spec, base.N_b)
        assert is_accretive(Z)["nonneg"]
        pencil = base.with_impedance(Z)
        report = ac.solve_pencil(pencil, n_wanted=14)
        assert np.all(report.residuals <= ac.RESIDUAL_TOL)
        lam = report.certified()
        blk = block_lu_eigenvalues(pencil, 14)
        for ref in (lambda_form_solve(pencil, n_wanted=14).certified(),
                    blk[np.abs(blk) > report.zero_tol]):
            assert lam.size == ref.size == n_nonzero
            assert folded_distance(lam, ref) <= 1e-10
            assert folded_distance(ref, lam) <= 1e-10

    @pytest.mark.parametrize("make_mesh", [lambda: ac.disk_mesh(0.12),
                                           lambda: ac.annulus_mesh(0.12)],
                             ids=["disk", "annulus"])
    def test_neumann_matches_symmetric_eigensolve(self, make_mesh):
        mesh = make_mesh()
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        pencil = ac.assemble_pencil(mesh, spec)
        report = ac.solve_pencil(pencil, n_wanted=12)
        lam = report.certified()
        assert lam.size == 10
        nu = spla.eigsh(pencil.K, k=8, M=pencil.M, sigma=-1e-3 * pencil.lam_scale ** 2,
                        which="LM", v0=bd.arpack_start(pencil.n),
                        return_eigenvectors=False)
        roots = np.sqrt(nu[nu > 1e-8 * nu.max()]).astype(complex)
        assert folded_distance(lam, roots) <= 1e-10
        inside = roots[roots.real < np.abs(lam).max() * (1 - 1e-6)]
        assert inside.size >= 3
        assert folded_distance(inside, lam) <= 1e-10


class SpyFactor:
    """The shared factor of A0, recording the right-hand sides it solves."""

    def __init__(self, lu):
        self.lu, self.rhs = lu, []

    def solve(self, b):
        self.rhs.append((b.shape, b.dtype))
        return self.lu.solve(b)


@pytest.fixture
def spy_eigs(monkeypatch):
    """Every operator ``solve_pencil`` hands to ARPACK, in call order."""
    eigs, ops = spla.eigs, []

    def spy(op, *args, **kwargs):
        ops.append(op)
        return eigs(op, *args, **kwargs)

    monkeypatch.setattr(ac.spla, "eigs", spy)
    return ops


def spied_solve(pencil):
    spy = SpyFactor(pencil.shifted_lu)
    spied = copy.copy(pencil)
    spied.shifted_lu = spy
    ac.solve_pencil(spied, n_wanted=10)
    return {shape[1] for shape, _ in spy.rhs}, {dtype for _, dtype in spy.rhs}


class TestRealForm:
    def test_arithmetic_follows_zhat(self, spy_eigs):
        mesh = ac.disk_mesh(0.12)
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        base = ac.assemble_pencil(mesh, spec)
        real = base.with_impedance(constant_z(spec, base.N_b))
        assert spied_solve(real) == ({1}, {np.dtype(float)})
        skew = base.with_impedance(skew_random_z(spec, base.N_b))
        assert spied_solve(skew) == ({2}, {np.dtype(float)})
        assert [op.dtype for op in spy_eigs] == [np.dtype(float), np.dtype(complex)]

    def test_real_kept_block_of_a_complex_impedance_is_solved_real(self, spy_eigs):
        # the one imaginary entry lies past N_b: the pencil keeps a real Zhat
        mesh = ac.disk_mesh(0.12)
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        base = ac.assemble_pencil(mesh, spec)
        Zhat = np.eye(base.N_b + 2, dtype=complex)
        Zhat[-1, -1] += 1j
        Z = matrix_impedance(spec, Zhat)
        pencil = base.with_impedance(Z)
        assert Z.matrix.dtype == np.complex128
        assert pencil.Zhat.dtype == np.float64
        assert np.array_equal(pencil.Zhat, np.eye(base.N_b))
        assert spied_solve(pencil) == ({1}, {np.dtype(float)})
        assert [op.dtype for op in spy_eigs] == [np.dtype(float)]

    def test_complex_matvec_makes_no_complex_copy_of_w(self, spy_eigs):
        # W = A0^-1 T^t is (n, N_b): a complex copy of it would take 2 W.nbytes
        mesh = ac.disk_mesh(0.06)
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        base = ac.assemble_pencil(mesh, spec)
        ac.solve_pencil(base.with_impedance(accretive_random_z(spec, base.N_b)),
                        n_wanted=4)
        op = spy_eigs[0]
        assert op.dtype == complex
        rng = np.random.default_rng(1)
        y = rng.standard_normal(2 * base.n) + 1j * rng.standard_normal(2 * base.n)
        op.matvec(y)
        tracemalloc.start()
        try:
            op.matvec(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < base.W.nbytes


class TestZeroCluster:
    def test_skew_sample_on_annulus_keeps_real_spectrum(self):
        # the defective zero of a skew Z moves by ~sqrt(backward error):
        # 1.6e-7 here, above a tolerance of 1e-7 lam_scale
        mesh = ac.annulus_mesh(0.04)
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        out = ac.monte_carlo_spectrum(mesh, spec, RandomImpedanceSpec(c=1.0, s=0.3),
                                      n_samples=1, seed0=0)
        summary = out["summary"]
        assert summary["n_solved"] == 1
        assert summary["fraction_halfplane"] == 1.0
        assert summary["fraction_real_spectrum"] == 1.0
        assert summary["min_zero_cluster"] == 2

    def test_neumann_zero_is_a_pair(self):
        mesh = ac.annulus_mesh(0.06)
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        pencil = ac.assemble_pencil(mesh, spec)
        report = ac.solve_pencil(pencil, n_wanted=14)
        assert report.zero_cluster_size == 2
        assert np.all(np.abs(report.certified()) >= 0.5 * pencil.lam_scale)


def scaled_disk_pencil(R):
    """disk_mesh(0.1) with its vertices scaled by R, at constant z0 0.5, N_b 32."""
    mesh = ac.disk_mesh(0.1)
    mesh = ac.DomainMesh(vertices=R * mesh.vertices, triangles=mesh.triangles,
                         boundary_loops=mesh.boundary_loops)
    spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 64)
    pencil = ac.assemble_pencil(mesh, spec, N_b=32)
    return pencil.with_impedance(constant_z(spec, 32, z0=0.5))


class TestScaleFree:
    @pytest.mark.parametrize("R", [1e-6, 1.0, 1e5, 1e6])
    def test_lam_scale_scales_with_the_mesh(self, R):
        # Neumann eigenvalues go like R^-2: an absolute threshold of
        # "nonzero" read lam_scale 1.0 at R = 1e5, and nothing certified
        pencil = scaled_disk_pencil(R)
        assert pencil.lam_scale * R == pytest.approx(
            scaled_disk_pencil(1.0).lam_scale, rel=1e-12, abs=0)
        report = ac.solve_pencil(pencil)
        assert report.certified().size == 13


def _disk_spec():
    return bd.build_curve_spectrum(ac.disk_mesh(0.3).boundary_geometry(), 40)


# one builder per value object that holds arrays
IDENTITY_BUILDS = {
    "BoundaryGeometry": lambda: shapes.icosphere(1),
    "BoundarySpectrum": _disk_spec,
    "SpectralFunction": lambda: bd.constant_function(_disk_spec()),
    "DomainMesh": lambda: ac.disk_mesh(0.3),
    "AcousticPencil": lambda: ac.assemble_pencil(ac.disk_mesh(0.3), _disk_spec()),
    "EigenReport": lambda: ac.EigenReport(eigenvalues=np.ones(2), residuals=np.zeros(2),
                                          converged=True, zero_tol=0.0),
    "MultiplierMatrix": lambda: constant_z(_disk_spec(), 8),
    "CayleyPair": lambda: cayley(constant_z(_disk_spec(), 8)),
}


@pytest.mark.parametrize("build", IDENTITY_BUILDS.values(), ids=IDENTITY_BUILDS.keys())
def test_value_objects_compare_by_identity(build):
    # a generated __eq__ raised ValueError on the arrays, and a generated
    # __hash__ of a frozen one TypeError
    a, b = build(), build()
    assert a == a
    assert a != b
    assert len({a, b, a}) == 2
