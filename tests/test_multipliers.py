import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from acouz import boundary as bd
from acouz import impedance as imp
from acouz import multipliers as mp
from acouz import shapes

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fejer_riesz_positive(spec, deg, rng):
    """phi = |q|^2 for a random trig polynomial q: nonnegative by
    construction, coefficients taken by exact grid projection."""
    L = spec.geometry.total_measure
    s = spec.quad_arclength
    a = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    q = np.zeros_like(s, dtype=complex)
    for j, aj in enumerate(a):
        q += aj * np.exp(2j * np.pi * j * s / L)
    vals = np.abs(q) ** 2
    return bd.SpectralFunction(spec, spec.coeffs_from_values(vals)), vals


def quadrature_contract(spec, c, N_trunc):
    """sum_k c_k G[k, m, n] on the midpoint grid, which integrates triple
    products of retained modes exactly."""
    W, Y = spec.quad_weights, spec.modes
    return np.einsum("q,mq,nq->mn", W * (c @ Y[:c.size]), Y[:N_trunc], Y[:N_trunc])


def random_coeffs(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def two_circles_spec(N):
    comps = (shapes.scaled_circle_by_perimeter(2 * np.pi).components[0],
             shapes.scaled_circle_by_perimeter(3.0).components[0] + 10.0)
    return bd.build_curve_spectrum(
        bd.BoundaryGeometry(dim_ambient=2, components=comps), N)


def mean_zero_oscillation(spec, rng, band=12):
    c = np.zeros(spec.count, dtype=complex)
    c[spec.b0:spec.b0 + band] = rng.standard_normal(band)
    return bd.SpectralFunction(spec, c)


@pytest.fixture(scope="module")
def cantor_400(circle_spec_400):
    return mp.cantor_measure_coeffs(circle_spec_400, 1 / 3, oracle_samples=2**14)


@pytest.fixture
def svd_calls(monkeypatch):
    """Record the dtype of every array passed to np.linalg.svd, also by
    np.linalg.norm(x, 2), which calls svd through its own module's globals."""
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.asarray(a).dtype)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setitem(getattr(svd, "__wrapped__", svd).__globals__, "svd", counting)
    return calls


class TestBuildMultiplier:
    def test_identity(self, circle_spec, circle_tensor):
        one = bd.constant_function(circle_spec)
        A = mp.build_multiplier(one, 0.5, 0.5, 32, tensor=circle_tensor)
        assert np.abs(A.matrix - np.eye(32)).max() < 1e-14

    def test_identity_two_components(self):
        spec = two_circles_spec(24)
        tensor = mp.TripleProductTensor(spec)
        A = mp.build_multiplier(bd.constant_function(spec), 0.5, 0.5, 12,
                                tensor=tensor)
        assert np.abs(A.matrix - np.eye(12)).max() < 1e-14
        # random phi: the quadrature oracle, and exactly zero blocks between
        # modes of different components
        c = random_coeffs(np.random.default_rng(6), spec.count)
        A = tensor.contract(c, spec.count)
        assert np.abs(A - quadrature_contract(spec, c, spec.count)).max() < 1e-12
        cross = spec.mode_comp[:, None] != spec.mode_comp[None, :]
        assert cross.any() and np.all(A[cross] == 0.0)

    def test_mode_multiplier_vs_quadrature(self, circle_spec, circle_tensor,
                                           disk_setup):
        phi = bd.unit_mode(circle_spec, 2)
        A = mp.build_multiplier(phi, 0.5, 0.5, 20, tensor=circle_tensor)
        quad = quadrature_contract(circle_spec, phi.coeffs, 20)
        assert np.abs(A.matrix - quad).max() < 1e-13
        # random complex phi at N_trunc = count, where sum frequencies leave
        # the stored modes and must drop out (the disk boundary spectrum ends
        # on a cos mode without its sin partner), and phi shorter than N_trunc
        rng = np.random.default_rng(4)
        disk_spec = disk_setup[1]
        for spec, n_c, N_trunc in ((circle_spec, circle_spec.count, circle_spec.count),
                                   (disk_spec, disk_spec.count, disk_spec.count),
                                   (disk_spec, 10, 40)):
            c = random_coeffs(rng, n_c)
            A = mp.TripleProductTensor(spec).contract(c, N_trunc)
            assert np.abs(A - quadrature_contract(spec, c, N_trunc)).max() < 1e-12

    def test_linearity_in_phi(self, circle_spec, circle_tensor):
        rng = np.random.default_rng(0)
        c1 = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        c2 = rng.standard_normal(30)
        f = lambda c: mp.build_multiplier(
            bd.SpectralFunction(circle_spec, c), 0.5, 0.5, 16,
            tensor=circle_tensor).matrix
        assert np.allclose(f(2.0 * c1 + c2), 2.0 * f(c1) + f(c2), atol=1e-13)

    def test_dirac_rank_one_exact(self, circle_spec, circle_tensor):
        s0 = 1.234
        phi = bd.dirac_coeffs(circle_spec, 0, s0)
        A = mp.build_multiplier(phi, 0.5, 0.5, 16, tensor=circle_tensor)
        y = circle_spec.evaluate_curve_modes(0, np.array([s0]))[:16, 0]
        assert np.abs(A.matrix - np.outer(y, y)).max() < 1e-13

    def test_product_coefficients_vs_quadrature(self, circle_spec, disk_setup):
        # coefficients of f*g on the retained modes, by the midpoint grid
        rng = np.random.default_rng(10)
        disk_spec = disk_setup[1]
        for spec, n_f, n_g in ((circle_spec, circle_spec.count, circle_spec.count),
                               (disk_spec, disk_spec.count, 25),
                               (two_circles_spec(30), 30, 30)):
            f, g = random_coeffs(rng, n_f), random_coeffs(rng, n_g)
            W, Y = spec.quad_weights, spec.modes
            quad = Y @ (W * (f @ Y[:n_f]) * (g @ Y[:n_g]))
            got = mp.TripleProductTensor(spec).product_coefficients(f, g)
            assert np.abs(got - quad).max() < 1e-12

    def test_truncation_guard(self, circle_spec, circle_tensor):
        one = bd.constant_function(circle_spec)
        with pytest.raises(bd.SpectrumError):
            mp.build_multiplier(one, 0.5, 0.5, circle_spec.count + 1,
                                tensor=circle_tensor)

    def test_adjoint_symmetry_exact(self, circle_spec, circle_tensor):
        rng = np.random.default_rng(7)
        c = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        phi = bd.SpectralFunction(circle_spec, c)
        A = mp.build_multiplier(phi, 0.5, 0.5, 20, tensor=circle_tensor)
        Ac = mp.build_multiplier(phi.conj(), 0.5, 0.5, 20, tensor=circle_tensor)
        assert np.array_equal(Ac.matrix, A.matrix.conj().T)

    def test_real_phi_gives_real_symmetric(self, circle_spec, circle_tensor):
        rng = np.random.default_rng(8)
        phi = bd.SpectralFunction(circle_spec, rng.standard_normal(30))
        A = mp.build_multiplier(phi, 0.5, 0.5, 20, tensor=circle_tensor).matrix
        assert np.abs(A.imag).max() == 0.0
        assert np.array_equal(A, A.T)

    def test_surface_multiplier_identity(self, sphere_spec):
        # lumped-mass modes: identity up to the lumped/consistent mismatch
        tensor = mp.TripleProductTensor(sphere_spec)
        one = bd.constant_function(sphere_spec)
        A = mp.build_multiplier(one, 0.5, 0.5, 10, tensor=tensor)
        assert np.abs(A.matrix - np.eye(10)).max() < 2e-2
        # consistent-mass modes: degree-4 rule integrates P1 products
        # exactly, so the identity is recovered to solver precision
        spec_c = bd.build_surface_spectrum(shapes.icosphere(3), 10,
                                           lumped_mass=False)
        Ac = mp.build_multiplier(bd.constant_function(spec_c), 0.5, 0.5, 10,
                                 tensor=mp.TripleProductTensor(spec_c))
        assert np.abs(Ac.matrix - np.eye(10)).max() < 1e-9

    def test_surface_tensor_symmetric(self, sphere_spec):
        tensor = mp.TripleProductTensor(sphere_spec)
        vals = [tensor.entry(2, 5, 7), tensor.entry(5, 7, 2), tensor.entry(7, 2, 5)]
        assert np.ptp(vals) < 1e-15

    def test_kernel_row_reproduces_identity(self, circle_spec, circle_tensor):
        # sum over kernel modes weighted by sqrt(measure) gives delta_mn
        L = circle_spec.geometry.total_measure
        for m, n in [(1, 1), (3, 3), (2, 5)]:
            val = math.sqrt(L) * circle_tensor.entry(0, m - 1, n - 1)
            assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-14)


class TestNormsAndCompactness:
    def test_identity_norm_is_one(self, circle_spec, circle_tensor):
        one = bd.constant_function(circle_spec)
        A = mp.build_multiplier(one, 0.5, 0.5, 32, tensor=circle_tensor)
        assert mp.multiplier_norm(A) == pytest.approx(1.0, abs=1e-12)

    def test_norm_scaling(self, circle_spec, circle_tensor):
        rng = np.random.default_rng(1)
        phi = bd.SpectralFunction(circle_spec, rng.standard_normal(30))
        A = mp.build_multiplier(phi, 0.5, 0.5, 20, tensor=circle_tensor)
        A3 = mp.build_multiplier(-3.0 * phi, 0.5, 0.5, 20, tensor=circle_tensor)
        assert mp.multiplier_norm(A3) == pytest.approx(3 * mp.multiplier_norm(A))

    def test_symmetric_exponent_equality(self, circle_spec, circle_tensor):
        rng = np.random.default_rng(2)
        phi = bd.SpectralFunction(circle_spec, rng.standard_normal(30))
        n1 = mp.multiplier_norm(mp.build_multiplier(phi, 0.3, 0.8, 24,
                                                    tensor=circle_tensor))
        n2 = mp.multiplier_norm(mp.build_multiplier(phi, 0.8, 0.3, 24,
                                                    tensor=circle_tensor))
        assert n1 == pytest.approx(n2, rel=1e-12)

    def test_norm_monotone_with_weight_ratio_bound(self, circle_spec, circle_tensor):
        rng = np.random.default_rng(3)
        phi = bd.SpectralFunction(circle_spec, rng.standard_normal(40))
        s1, s2, t1, t2 = 0.25, 0.4, 0.5, 0.9
        As = mp.build_multiplier(phi, s1, s2, 24, tensor=circle_tensor)
        At = mp.build_multiplier(phi, t1, t2, 24, tensor=circle_tensor)
        w = lambda t: bd.ht_weights(circle_spec, t)[:24]
        C = np.max(w(-t2) / w(-s2)) * np.max(w(-t1) / w(-s1))
        assert mp.multiplier_norm(At) <= C * mp.multiplier_norm(As) + 1e-12

    def test_diagonal_profile_closed_form(self, circle_spec, circle_tensor):
        one = bd.constant_function(circle_spec)
        A = mp.build_multiplier(one, 0.5, 0.5, 32, tensor=circle_tensor)
        prof = mp.compactness_profile(A, [1, 4, 16, 32])
        w = np.sort(bd.ht_weights(circle_spec, -0.5)[:32]
                    / bd.ht_weights(circle_spec, 0.5)[:32])[::-1]
        assert np.allclose(prof, w[[0, 3, 15, 31]])
        # sigma_k ~ mu_k^{-1/2} decay: compact indicator
        assert prof[-1] < 0.1 * prof[0]

    def test_identity_weights_not_compact(self, circle_spec):
        A = mp.MultiplierMatrix(spectrum=circle_spec, matrix=np.eye(32),
                                s1=0.0, s2=0.0, N_trunc=32)
        prof = mp.compactness_profile(A, [1, 32])
        assert prof[1] == pytest.approx(prof[0])

    def test_rough_distribution_compact_profile(self, circle_spec, circle_tensor):
        # coefficients of an H^{-s} distribution with s < 1/2: xi mu^{s/2-...}
        # modeled deterministically as c_n = mu_n^{0.2/2} (in H^{-0.2-eps})
        c = np.ones(circle_spec.count)
        c[circle_spec.b0:] = circle_spec.mu[circle_spec.b0:] ** 0.1
        phi = bd.SpectralFunction(circle_spec, c)
        A = mp.build_multiplier(phi, 0.5, 0.5, 48, tensor=circle_tensor)
        prof = mp.compactness_profile(A, [1, 8, 32, 48])
        assert prof[-1] < 0.2 * prof[0]

    def test_rank_validation(self, circle_spec, circle_tensor):
        one = bd.constant_function(circle_spec)
        A = mp.build_multiplier(one, 0.5, 0.5, 8, tensor=circle_tensor)
        with pytest.raises(bd.SpectrumError):
            mp.compactness_profile(A, [9])


class TestSingularValues:
    """One singular-value solve per compression, real when phi is real."""

    @pytest.mark.parametrize("N_trunc", [64, 128])
    @pytest.mark.parametrize("s1, s2", [(0.5, 0.5), (0.3, 0.8)])
    def test_real_path_matches_complex_svd(self, cantor_400, N_trunc, s1, s2,
                                           svd_calls):
        A = mp.build_multiplier(cantor_400, s1, s2, N_trunc)
        sv = A.singular_values
        assert svd_calls == [np.float64]
        ref = np.linalg.svd(A.weighted(), compute_uv=False)
        assert np.abs(sv - ref).max() <= 1e-13 * ref[0]

    def test_complex_phi_keeps_complex_arithmetic(self, circle_spec, circle_tensor,
                                                  svd_calls):
        phi = 1j * bd.unit_mode(circle_spec, 4)
        A = mp.build_multiplier(phi, 0.5, 0.3, 32, tensor=circle_tensor)
        sv = A.singular_values
        assert svd_calls == [np.complex128]
        ref = np.linalg.svd(A.weighted(), compute_uv=False)
        assert np.abs(sv - ref).max() <= 1e-13 * ref[0]

    def test_norm_and_profile_share_one_solve(self, cantor_400, svd_calls):
        A = mp.build_multiplier(cantor_400, 0.5, 0.5, 64)
        norm = mp.multiplier_norm(A)
        prof = mp.compactness_profile(A, [1, 8, 64])
        assert len(svd_calls) == 1
        assert prof[0] == norm

    def test_positivity_takes_no_svd_on_real_phi(self, cantor_400, circle_spec,
                                                 circle_tensor, svd_calls):
        mp.positivity_test(mp.build_multiplier(cantor_400, 0.0, 0.0, 64))
        assert svd_calls == []
        mp.positivity_test(mp.build_multiplier(1j * bd.unit_mode(circle_spec, 3),
                                               0.0, 0.0, 16, tensor=circle_tensor))
        assert svd_calls == [np.complex128]


class TestPositivity:
    def test_constant_positive(self, circle_spec, circle_tensor):
        res = mp.positivity_test(mp.build_multiplier(
            bd.constant_function(circle_spec), 0.0, 0.0, 16, tensor=circle_tensor))
        assert res["nonneg"] and res["min_eig"] == pytest.approx(1.0)

    def test_mean_zero_oscillation_fails(self, circle_spec, circle_tensor):
        res = mp.positivity_test(mp.build_multiplier(
            bd.unit_mode(circle_spec, 2), 0.0, 0.0, 16, tensor=circle_tensor))
        assert not res["nonneg"] and res["min_eig"] < -0.1

    def test_dirac_psd(self, circle_spec, circle_tensor):
        res = mp.positivity_test(mp.build_multiplier(
            bd.dirac_coeffs(circle_spec, 0, 0.7), 0.0, 0.0, 20, tensor=circle_tensor))
        assert res["nonneg"]

    @pytest.mark.parametrize("make_z", [
        lambda spec, T: imp.multiplier_impedance(bd.constant_function(spec), 16,
                                                 tensor=T),
        lambda spec, T: imp.multiplier_impedance(bd.unit_mode(spec, 2), 16, tensor=T),
        lambda spec, T: imp.multiplier_impedance(bd.dirac_coeffs(spec, 0, 0.7), 20,
                                                 tensor=T),
        lambda spec, T: imp.multiplier_impedance(
            mp.cantor_measure_coeffs(spec, 1 / 3, oracle_samples=2**14), 24, tensor=T),
        lambda spec, T: imp.multiplier_impedance(1j * bd.unit_mode(spec, 2), 16,
                                                 tensor=T),
        lambda spec, T: imp.symbol_impedance(spec, 16, c1=1.0, c2=1.0, t=1.0,
                                             imaginary=True),
        lambda spec, T: imp.matrix_impedance(
            spec, random_coeffs(np.random.default_rng(7), (12, 12))),
    ], ids=["constant", "unit_mode", "dirac", "cantor", "imaginary",
            "imaginary_symbol", "random_matrix"])
    def test_matches_complex_hermitian_oracle(self, circle_spec, circle_tensor, make_z):
        # every caller of hermitian_check against the complex formulas it replaced
        Z = make_z(circle_spec, circle_tensor)
        X = Z.matrix
        min_eig = np.linalg.eigvalsh(0.5 * (X + X.conj().T))[0]
        norm = np.linalg.norm(X, 2)
        tol = mp.psd_tolerance(norm)
        A = mp.MultiplierMatrix(circle_spec, X, 0.0, 0.0, Z.N_trunc)
        for res in (mp.positivity_test(A), imp.is_accretive(Z)):
            assert res["min_eig"] == pytest.approx(min_eig, abs=1e-13)
            assert res["norm"] == pytest.approx(norm, rel=1e-12)
            assert res["tol"] == pytest.approx(tol, rel=1e-12)
            assert res["nonneg"] == (min_eig >= -tol)
        assert imp.selfadjointness_criterion(Z) == (
            np.linalg.norm(X + X.conj().T, 2) <= tol)
        Zt = imp.conjugate_to_l2(Z)
        if np.linalg.eigvalsh(0.5 * (Zt + Zt.conj().T))[0] >= -mp.psd_tolerance(
                np.linalg.norm(Zt, 2)):
            assert np.allclose(imp.friedrichs_conjugated(Z), X, rtol=0, atol=1e-12)
        else:
            with pytest.raises(bd.SpectrumError):
                imp.friedrichs_conjugated(Z)

    def test_fejer_riesz_family_psd(self, circle_spec, circle_tensor):
        rng = np.random.default_rng(11)
        for _ in range(10):
            phi, _ = fejer_riesz_positive(circle_spec, deg=6, rng=rng)
            res = mp.positivity_test(mp.build_multiplier(phi, 0.0, 0.0, 24,
                                                         tensor=circle_tensor))
            assert res["min_eig"] >= -1e-10

    def test_toeplitz_cross_check(self, circle_spec):
        # exponential-basis multiplier matrix of a nonnegative measure is a
        # PSD Toeplitz matrix; eigenvalues agree with the real-basis compression
        rng = np.random.default_rng(13)
        phi, vals = fejer_riesz_positive(circle_spec, deg=5, rng=rng)
        L = circle_spec.geometry.total_measure
        s, w = circle_spec.quad_arclength, circle_spec.quad_weights
        K = 8
        moments = np.array([(w * vals * np.exp(-2j * np.pi * k * s / L)).sum() / L
                            for k in range(2 * K + 1)])
        T = np.empty((2 * K + 1, 2 * K + 1), dtype=complex)
        for mm in range(2 * K + 1):
            for nn in range(2 * K + 1):
                d = mm - nn
                T[mm, nn] = moments[d] if d >= 0 else np.conj(moments[-d])
        ev_toeplitz = np.linalg.eigvalsh(T)
        assert ev_toeplitz.min() >= -1e-10
        A = mp.build_multiplier(phi, 0.0, 0.0, 2 * K + 1,
                                tensor=mp.TripleProductTensor(circle_spec))
        ev_real = np.linalg.eigvalsh(0.5 * (A.matrix + A.matrix.conj().T))
        assert np.allclose(np.sort(ev_real), np.sort(ev_toeplitz), atol=1e-10)


class TestAccretivityAgreement:
    def test_trivial_cases(self, circle_spec, circle_tensor):
        one = bd.constant_function(circle_spec)
        assert mp.accretivity_integral_test(one, 8, seed=0,
                                            tensor=circle_tensor)["nonneg"]
        z = bd.SpectralFunction(circle_spec, 1j * bd.unit_mode(circle_spec, 5).coeffs)
        assert mp.accretivity_integral_test(z, 8, seed=0,
                                            tensor=circle_tensor)["nonneg"]
        minus = bd.SpectralFunction(circle_spec, -one.coeffs)
        assert not mp.accretivity_integral_test(minus, 8, seed=0,
                                                tensor=circle_tensor)["nonneg"]

    def test_agreement_with_positivity_random(self, circle_spec, circle_tensor):
        rng = np.random.default_rng(5)
        agree = 0
        for trial in range(40):
            c = np.zeros(circle_spec.count, dtype=complex)
            c[:24] = rng.standard_normal(24) + 1j * rng.standard_normal(24)
            if trial % 3 == 0:
                c[:24] += 4.0 * bd.constant_function(circle_spec).coeffs[:24]
            z = bd.SpectralFunction(circle_spec, c)
            a = mp.accretivity_integral_test(z, 12, seed=trial,
                                             tensor=circle_tensor)["nonneg"]
            b = mp.positivity_test(mp.build_multiplier(
                z.real(), 0.0, 0.0, z.n_coeffs, tensor=circle_tensor))["nonneg"]
            agree += (a == b)
        assert agree == 40


class TestLqCases:
    def test_paper_anchor_points(self):
        assert mp.lq_embedding_case(mp.LqEmbeddingQuery(3, .5, .5, 2.0)) == \
            {"case": "i", "embeds": True}
        assert mp.lq_embedding_case(mp.LqEmbeddingQuery(2, .5, .5, 1.5)) == \
            {"case": "ii", "embeds": True}
        assert mp.lq_embedding_case(mp.LqEmbeddingQuery(2, 1.0, 1.0, 1.0)) == \
            {"case": "v", "embeds": True}

    def test_derived_quantities(self):
        q = mp.LqEmbeddingQuery(3, 0.5, 1.0, 2.0)
        assert q.kappa == (0.5, 1.0)
        assert q.pi == (0.25, 0.0)
        assert q.pi0 == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            mp.LqEmbeddingQuery(1, 0.5, 0.5, 2.0)
        with pytest.raises(ValueError):
            mp.LqEmbeddingQuery(2, 1.5, 0.5, 2.0)
        with pytest.raises(ValueError):
            mp.LqEmbeddingQuery(2, 0.5, 0.5, 0.5)

    def test_matches_reference_fixture(self):
        with open(os.path.join(FIXTURES, "lq_reference.json")) as f:
            rows = json.load(f)
        assert len(rows) == 200
        for row in rows:
            q = math.inf if row["q"] == "inf" else row["q"]
            got = mp.lq_embedding_case(
                mp.LqEmbeddingQuery(row["d"], row["s1"], row["s2"], q))
            assert got["case"] == row["case"], row
            assert got["embeds"] == (True if row["case"] != "none" else "unknown")


class TestCantor:
    def test_ratio_validation(self, circle_spec):
        with pytest.raises(ValueError):
            mp.cantor_measure_coeffs(circle_spec, 0.6)

    def test_unit_mass_constant_coefficient(self, circle_spec):
        phi = mp.cantor_measure_coeffs(circle_spec, 1 / 3, oracle_samples=2**14)
        L = circle_spec.geometry.total_measure
        assert phi.coeffs[0].real == pytest.approx(1 / np.sqrt(L), abs=1e-12)

    def test_self_similarity_non_decay(self):
        # for r = 1/3 the exponential moments at 3^j all equal the moment at
        # k = 1 (exact self-similarity); no Rajchman decay on that subsequence
        mo = mp.cantor_exponential_moments(1 / 3, np.array([1, 3, 9, 27, 81, 243]),
                                           n_samples=10**6, seed=3)
        assert np.abs(mo - mo[0]).max() < 1e-6
        assert np.abs(mo[0]) > 0.3

    def test_stratified_vs_brute_force(self):
        freqs = np.array([1, 3, 9, 27])
        a = mp.cantor_exponential_moments(1 / 3, freqs, n_samples=2**17, seed=1)
        b = mp.cantor_exponential_moments(1 / 3, freqs, n_samples=2 * 10**5,
                                          seed=9, stratified=False)
        assert np.abs(a - b).max() < 5e-3

    @pytest.mark.slow
    def test_brute_force_oracle_ten_million(self):
        freqs = np.array([1, 3, 9, 27, 81, 243])
        a = mp.cantor_exponential_moments(1 / 3, freqs, n_samples=2**20, seed=1)
        b = mp.cantor_exponential_moments(1 / 3, freqs, n_samples=10**7, seed=4,
                                          stratified=False)
        assert np.abs(a - b).max() < 2e-3
        assert np.abs(b).min() > 0.3      # non-decay confirmed by brute force

    def test_positivity_of_cantor_measure(self, circle_spec, circle_tensor):
        phi = mp.cantor_measure_coeffs(circle_spec, 1 / 3, oracle_samples=2**18)
        res = mp.positivity_test(mp.build_multiplier(phi, 0.0, 0.0, 24,
                                                     tensor=circle_tensor), tol=1e-6)
        assert res["nonneg"]

    def test_negative_frequencies_are_conjugates(self):
        mo = mp.cantor_exponential_moments(1 / 3, np.array([-1, 1, 2]),
                                           n_samples=2**12)
        assert mo[0] == np.conj(mo[1])

    def test_branches_agree_on_mixed_signs(self):
        freqs = np.array([-5, -2, 0, 1, 2, 5])
        dense = mp.cantor_exponential_moments(1 / 3, freqs, n_samples=2**12)
        # one far frequency sends the set to the per-frequency branch
        sparse = mp.cantor_exponential_moments(1 / 3, np.append(freqs, 1000),
                                               n_samples=2**12)[:-1]
        assert np.abs(dense - sparse).max() <= 1e-13

    def test_second_component_support(self):
        comps = (shapes.scaled_circle_by_perimeter(2 * np.pi).components[0],
                 shapes.scaled_circle_by_perimeter(2.0).components[0] + 8.0)
        geom = bd.BoundaryGeometry(dim_ambient=2, components=comps)
        spec = bd.build_curve_spectrum(geom, 20)
        phi = mp.cantor_measure_coeffs(spec, 1 / 3, target_component=1,
                                       oracle_samples=2**12)
        on0 = spec.mode_comp == 0
        assert np.abs(phi.coeffs[on0]).max() == 0.0


def whole_array_cantor_points(r, n_samples, seed):
    """The stratified Cantor sampler written as one loop over whole arrays."""
    rng = np.random.default_rng(seed)
    scale = 1.0 - r
    J = max(1, min(22, int(math.floor(math.log2(max(2, n_samples))))))
    idx = np.arange(1 << J, dtype=np.uint64)
    x = np.zeros(1 << J)
    for i in range(J):
        x += ((idx >> np.uint64(i)) & np.uint64(1)).astype(float) * (scale * r ** i)
    extra = max(8, min(48, int(math.ceil(-40.0 / math.log10(r)))))
    w = rng.integers(0, 2 ** 62, size=x.size, dtype=np.uint64)
    for i in range(extra):
        x += ((w >> np.uint64(i)) & np.uint64(1)).astype(float) * (scale * r ** (J + i))
    return x


class TestCantorPowerSums:
    """The blocked power sums behind the dense band of Cantor moments."""

    @pytest.mark.parametrize("r", [1 / 3, 0.1, 0.45])
    @pytest.mark.parametrize("n_samples", [2, 2**15 + 3, 2**17])
    def test_sampler_bitwise_equals_whole_array_loop(self, r, n_samples):
        x = mp._cantor_points(r, n_samples, np.random.default_rng(7), True)
        assert np.array_equal(x, whole_array_cantor_points(r, n_samples, 7))

    # B = isqrt(kmax) + 1 steps from 24 to 25 between 24**2 - 1 and 24**2
    @pytest.mark.parametrize("kmax", [0, 1, 24**2 - 1, 24**2])
    @pytest.mark.parametrize("n_samples, stratified", [(2**12, True),
                                                       (10**4 + 7, False)],
                             ids=["stratified", "plain_ragged_chunk"])
    def test_matches_per_frequency_means(self, kmax, n_samples, stratified):
        x = mp._cantor_points(1 / 3, n_samples, np.random.default_rng(5), stratified)
        ref = np.array([np.exp(2j * np.pi * k * x).mean() for k in range(kmax + 1)])
        got = mp.cantor_exponential_moments(1 / 3, np.arange(kmax + 1),
                                            n_samples=n_samples, seed=5,
                                            stratified=stratified)
        assert np.abs(got - ref).max() <= 1e-13

    @pytest.mark.parametrize("chunk", [7, 1000, 2**20])
    def test_chunk_size_does_not_matter(self, chunk, monkeypatch):
        freqs = np.arange(1, 568)
        kwargs = {"n_samples": 10**4 + 7, "stratified": False}
        ref = mp.cantor_exponential_moments(1 / 3, freqs, **kwargs)
        monkeypatch.setattr(mp, "POWER_CHUNK", chunk)
        got = mp.cantor_exponential_moments(1 / 3, freqs, **kwargs)
        assert np.abs(got - ref).max() <= 1e-13

    def test_peak_memory_below_three_samples(self):
        # no n x B or n x kmax temporary: the whole call stays below three
        # copies of the sample x (numpy reports its buffers to tracemalloc)
        n = 2**18
        tracemalloc.start()
        try:
            mp.cantor_exponential_moments(1 / 3, np.arange(1, 568), n_samples=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * np.dtype(float).itemsize
