import math

import numpy as np
import pytest

from acouz import acoustic as ac
from acouz import boundary as bd
from acouz import harness
from acouz.fgf import RandomImpedanceSpec, impedance_coefficients, sample_random_impedance
from acouz.impedance import impedance_from_config, multiplier_impedance, zero_impedance
from acouz.multipliers import TripleProductTensor

J1P_1 = 1.8411837813406593      # first zero of J_1': the smallest Neumann disk eigenvalue


def constant_z(spec, N_trunc, z0=1.0):
    return impedance_from_config(spec, {"kind": "constant", "z0": z0}, N_trunc=N_trunc)


class TestEigenReport:
    def test_q_factor_uses_halfplane_tolerance(self):
        # a real eigenvalue with round-off in Im is not decaying: q = inf;
        # an unconverged one is written but not certified
        lam = np.array([1 - 1e-15j, 2 - 0.5j, 3 - 1j])
        report = ac.EigenReport(eigenvalues=lam, residuals=np.zeros(3),
                                converged=np.array([True, True, False]),
                                vectors=None, shift=0j, zero_tol=1e-7)
        rows = report.rows(sample_id=4)
        assert [r[3] for r in rows] == [math.inf, 2.0, 1.5]
        assert [r[4] for r in rows] == [1, 1, 0]
        assert all(r[5] == 4 for r in rows)


class TestNeumannDisk:
    def test_converges_to_bessel_root(self):
        levels = [(m, bd.build_curve_spectrum(m.boundary_geometry(), 64))
                  for m in ac.disk_mesh_family(0.25, 3)]
        table = ac.refinement_study(levels, n_track=1, n_wanted=6, oracle=[J1P_1])
        assert table["errors"][-1, 0] < 2e-3
        assert np.all(table["orders"][:, 0] >= 1.6)


class TestWithImpedance:
    def test_scatter_matches_boundary_block(self, disk_setup):
        mesh, spec = disk_setup
        pencil = ac.assemble_pencil(mesh, spec).with_impedance(
            constant_z(spec, 40, z0=1.0 + 0.5j))
        idx = np.asarray(pencil.bdofs)
        assert np.array_equal(pencil.B.toarray()[np.ix_(idx, idx)],
                              pencil.boundary_block())
        assert pencil.B.nnz == idx.size ** 2

    def test_zero_impedance_is_neumann(self, disk_setup):
        mesh, spec = disk_setup
        base = ac.assemble_pencil(mesh, spec)
        assert base.Zhat is None and base.B.nnz == 0
        assert base.with_impedance(None) is base
        assert base.with_impedance(zero_impedance(spec, base.N_b)) is base

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
        assert ver["herm_check"] >= -1e-10
        assert ver["resolvent_violation"] <= 1e-6


class TestDefaultNb:
    def test_counts_every_boundary_loop(self):
        mesh = ac.annulus_mesh(0.3)
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        n_bdofs = sum(len(loop) for loop in mesh.boundary_loops)
        assert len(mesh.boundary_loops) == 2
        assert ac.default_N_b(mesh, spec) == n_bdofs // 2
        assert ac.assemble_pencil(mesh, spec).N_b == n_bdofs // 2

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


class TestMonteCarlo:
    def test_sample_equals_standalone_solve(self):
        mesh = ac.disk_mesh(0.3)
        spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 160)
        rspec = RandomImpedanceSpec(c=1.0, s=0.3)
        out = ac.monte_carlo_spectrum(mesh, spec, rspec, n_samples=3, seed0=5)
        threaded = ac.monte_carlo_spectrum(mesh, spec, rspec, n_samples=3,
                                           seed0=5, workers=2)
        base = ac.assemble_pencil(mesh, spec)
        tensor = TripleProductTensor(spec)
        assert out["summary"]["fraction_real_spectrum"] == 1.0
        for sample, other in zip(out["samples"], threaded["samples"], strict=True):
            zeta = sample_random_impedance(spec, rspec, spec.count, sample["seed"])
            Z = multiplier_impedance(impedance_coefficients(zeta), base.N_b,
                                     tensor=tensor)
            report = ac.solve_pencil(base.with_impedance(Z), n_wanted=14)
            assert np.array_equal(report.eigenvalues, sample["eigenvalues"])
            assert np.array_equal(other["eigenvalues"], sample["eigenvalues"])
