import numpy as np
import pytest

from acouz import boundary as bd
from acouz import fgf
from acouz import multipliers as mp
from acouz import shapes


@pytest.fixture(scope="module")
def deep_circle_spec(unit_circle_geom):
    return bd.build_curve_spectrum(unit_circle_geom, 4096)


def _paths(seeds, N=fgf.FGF_CHECKPOINTS[-1]):
    """The draws of seeds 0..seeds-1 up to mode N, one row per seed."""
    return fgf.gaussian_paths(range(seeds), N)


class TestSampling:
    def test_bit_identical_reproduction(self, circle_spec):
        a = fgf.sample_fgf(circle_spec, 1.0, 48, seed=42)
        b = fgf.sample_fgf(circle_spec, 1.0, 48, seed=42)
        assert np.array_equal(a, b)
        assert np.array_equal(fgf.gaussian_stream(42, 48), fgf.gaussian_stream(42, 48))

    def test_truncation_extension_is_prefix(self, circle_spec):
        a = fgf.sample_fgf(circle_spec, 0.7, 24, seed=5)
        b = fgf.sample_fgf(circle_spec, 0.7, 60, seed=5)
        assert np.array_equal(a, b[:24])

    def test_kernel_purity(self, circle_spec):
        coeffs = fgf.sample_fgf(circle_spec, 1.2, 40, seed=9)
        b0 = circle_spec.b0
        assert np.all(coeffs[:b0] == 0.0)
        assert np.array_equal(coeffs[b0:], fgf.gaussian_stream(9, 40)[b0:]
                              * fgf.field_scales(circle_spec, 1.2, 40)[b0:])
        assert np.isrealobj(coeffs)

    def test_white_noise_at_s_zero(self, circle_spec):
        coeffs = fgf.sample_fgf(circle_spec, 0.0, 32, seed=1)
        assert np.array_equal(coeffs[1:], fgf.gaussian_stream(1, 32)[1:])

    def test_hurst_parameter(self, circle_spec, sphere_spec):
        # the boundary Hurst parameter s - (d-1)/2 is the classifier's threshold
        for spec, hurst in ((circle_spec, 0.5), (sphere_spec, 0.0)):
            r = fgf.convergence_classifier(spec, 1.0, -1.0, _paths(30, 16),
                                           checkpoints=[1, 2, 4, 8, 16])
            assert r["threshold"] == pytest.approx(hurst)

    def test_truncation_guard(self, circle_spec):
        with pytest.raises(bd.SpectrumError):
            fgf.sample_fgf(circle_spec, 1.0, circle_spec.count + 1, 0)

    def test_variance_law_quick(self, circle_spec):
        M = 3000
        sams = np.array([fgf.sample_fgf(circle_spec, 1.0, 24, seed=i)
                         for i in range(M)])
        for n in [3, 8, 15]:
            var = sams[:, n - 1].var()
            expect = circle_spec.mu[n - 1] ** -1.0
            assert abs(var / expect - 1.0) <= 4.0 / np.sqrt(M)

    def test_gaussian_stream_moments(self):
        xi = fgf.gaussian_stream(123, 200000)
        assert abs(xi.mean()) < 0.01
        assert abs(xi.var() - 1.0) < 0.01

    def test_gaussian_stream_pinned(self):
        # the first draws of seed 0, fixed across versions
        assert fgf.gaussian_stream(0, 8).tolist() == [
            -2.271884148324594, -0.701327920628698, -1.218980191079758,
            0.16217155791645022, 0.005964818724655495, -0.5899694163636463,
            1.612232229200595, 2.1991464939613485]

    def test_extreme_words_stay_finite(self, monkeypatch):
        # the top word's uniform (2^53 - 1/2) 2^-53 rounds to 1.0, whose
        # Gaussian draw would be inf and Exp(1) draw 0
        class ExtremePhilox(fgf.Philox):
            def random_raw(self, size=None, output=True):
                return np.array([0, 2 ** 64 - 1], dtype=np.uint64)

        monkeypatch.setattr(fgf, "Philox", ExtremePhilox)
        u = fgf._raw_uniforms(0, 0, 2)
        assert u[0] == 2.0 ** -54 and u[1] == np.nextafter(1.0, 0.0)
        assert np.all(np.isfinite(fgf.gaussian_stream(0, 2)))
        assert np.all(fgf.positive_stream(0, 2) > 0)

    def test_positive_stream_laws(self):
        # Exp(1): mean and variance 1
        eta = fgf.positive_stream(7, 100000)
        assert np.all(eta > 0)
        assert abs(eta.mean() - 1.0) < 0.02
        assert abs(eta.var() - 1.0) < 0.05


class TestPartialSums:
    def test_deterministic_surrogate_matches_direct_sum(self, circle_spec,
                                                        monkeypatch):
        # all xi == 1: |S_N|_t^2 must equal sum w_n(t)^2 mu_n^{-s} exactly
        s, t = 1.0, 0.3
        checkpoints = [8, 16, 32, 64]
        monkeypatch.setattr(fgf, "gaussian_stream", lambda seed, count: np.ones(count))
        [norms] = fgf._partial_sum_norms(
            circle_spec, s, fgf.gaussian_paths([0], 64), t, checkpoints)
        w = bd.ht_weights(circle_spec, t)
        mu = circle_spec.mu
        direct = [np.sqrt(np.sum(w[1:N] ** 2 * mu[1:N] ** -s)) for N in checkpoints]
        assert np.allclose(norms, direct, rtol=1e-14)

    def test_path_consistency_across_checkpoints(self, deep_circle_spec):
        [norms] = fgf._partial_sum_norms(deep_circle_spec, 1.0,
                                         fgf.gaussian_paths([3], 512), 0.0,
                                         [64, 128, 256, 512])
        one_shot = fgf.sample_fgf(deep_circle_spec, 1.0, 512, 3)
        w = bd.ht_weights(deep_circle_spec, 0.0)[:512]
        assert norms[-1] == pytest.approx(
            float(np.linalg.norm(w * one_shot)))
        assert np.all(np.diff(norms) >= 0)

    def test_checkpoint_validation(self):
        # the partial sums read increasing checkpoints; the schedule check
        # that the classifier and the harness apply rejects any other list
        with pytest.raises(ValueError, match="strictly increasing"):
            fgf.check_classifier_schedule(30, [32, 16])


class TestClassifier:
    def test_preconditions(self, deep_circle_spec):
        with pytest.raises(ValueError):
            fgf.convergence_classifier(deep_circle_spec, 1.0, 0.0, _paths(10))
        with pytest.raises(ValueError):
            fgf.convergence_classifier(deep_circle_spec, 1.0, 0.0, _paths(40, 200),
                                       checkpoints=[64, 100, 130, 190, 200])

    def test_paths_rows_and_length(self, deep_circle_spec):
        # one row of paths per seed, each as long as the last checkpoint
        paths = fgf.gaussian_paths(range(4, 34), 4096)
        given = fgf.convergence_classifier(deep_circle_spec, 1.0, 0.0, paths=paths)
        assert given["seeds"] == 30
        with pytest.raises(ValueError, match="need at least 30 seeds"):
            fgf.convergence_classifier(deep_circle_spec, 1.0, 0.0, paths=paths[:20])
        with pytest.raises(ValueError, match="4096 draws"):
            fgf.convergence_classifier(deep_circle_spec, 1.0, 0.0,
                                       paths=paths[:, :2048])

    def test_clear_cases(self, deep_circle_spec):
        r = fgf.convergence_classifier(deep_circle_spec, 1.0, 0.0, _paths(40))
        assert r["verdict"] == "converges"           # threshold 1/2
        r = fgf.convergence_classifier(deep_circle_spec, 1.0, 1.0, _paths(40))
        assert r["verdict"] == "diverges"

    def test_indeterminate_in_margin_band(self, deep_circle_spec):
        r = fgf.convergence_classifier(deep_circle_spec, 1.0, 0.55, _paths(40))
        assert r["verdict"] == "indeterminate"
        assert r["threshold"] == pytest.approx(0.5)

    def test_sphere_threshold_shift(self):
        # d = 3: threshold t < s - 1; s = 1, t = -0.5 converges
        spec = bd.build_surface_spectrum(shapes.icosphere(4), 256)
        r = fgf.convergence_classifier(spec, 1.0, -0.5, _paths(30, 256),
                                       checkpoints=[16, 32, 64, 128, 256],
                                       eps_conv=0.05)
        assert r["verdict"] == "converges"
        # deterministic cross-check: the coefficient series converges
        w = bd.ht_weights(spec, -0.5)
        tail = (w[spec.b0:] ** 2) * spec.mu[spec.b0:] ** -1.0
        partial = np.cumsum(tail)
        assert partial[-1] - partial[partial.size // 2] < 0.05 * partial[-1]

    @pytest.mark.slow
    def test_margin_contract_at_offset_point_one(self, unit_circle_geom):
        # the stated guarantee: verdicts match theory whenever
        # |t - threshold| >= 0.1, given checkpoints deep enough to resolve
        spec = bd.build_curve_spectrum(unit_circle_geom, 2 ** 20)
        cps = [64 * 2 ** i for i in range(15)]
        for s in [0.5, 1.0, 2.0]:
            for off in [-0.1, 0.1]:
                t = (s - 0.5) + off
                r = fgf.convergence_classifier(spec, s, t, _paths(40, cps[-1]),
                                               checkpoints=cps)
                want = "converges" if off < 0 else "diverges"
                assert r["verdict"] == want, (s, off, r)


class TestRandomImpedance:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            fgf.RandomImpedanceSpec(c=1.0, s=0.0)
        with pytest.raises(ValueError):
            fgf.RandomImpedanceSpec(c=1.0, s=0.5, kernel_weights=(-1.0,))

    def test_zero_recipe(self, circle_spec):
        r = fgf.RandomImpedanceSpec(c=0.0, s=0.5, kernel_weights=(0.0,))
        z = fgf.sample_random_impedance(circle_spec, r, 32, seed=0)
        assert np.all(z.coeffs == 0.0)

    def test_kernel_only_nonnegative(self, circle_spec, circle_tensor):
        r = fgf.RandomImpedanceSpec(c=0.0, s=0.5, kernel_weights=(1.0,))
        z = fgf.sample_random_impedance(circle_spec, r, 32, seed=4)
        assert z.coeffs[0].real > 0.0
        assert np.all(z.coeffs[1:] == 0.0)
        res = mp.positivity_test(mp.build_multiplier(z, 0.0, 0.0, 16,
                                                     tensor=circle_tensor))
        assert res["nonneg"]

    def test_real_coefficients_and_reproducibility(self, circle_spec):
        r = fgf.RandomImpedanceSpec(c=1.0, s=0.3, kernel_weights=(2.0,))
        z1 = fgf.sample_random_impedance(circle_spec, r, 48, seed=11)
        z2 = fgf.sample_random_impedance(circle_spec, r, 48, seed=11)
        assert np.array_equal(z1.coeffs, z2.coeffs)
        assert np.all(z1.coeffs.imag == 0.0)

    def test_kernel_weight_count_guard(self, circle_spec):
        r = fgf.RandomImpedanceSpec(c=1.0, s=0.3, kernel_weights=(1.0, 2.0))
        with pytest.raises(ValueError):
            fgf.sample_random_impedance(circle_spec, r, 16, seed=0)

    def test_h_minus_half_plus_eps_stabilization(self, unit_circle_geom):
        # zeta with c=1, s=0.2 lives in H^{-1/2+eps}: |zeta|_{-0.45}
        # stabilizes under truncation doubling
        spec = bd.build_curve_spectrum(unit_circle_geom, 4096)
        r = fgf.RandomImpedanceSpec(c=1.0, s=0.2, kernel_weights=(1.0,))
        norms = []
        for N in [512, 1024, 2048, 4096]:
            z = fgf.sample_random_impedance(spec, r, N, seed=2)
            norms.append(np.linalg.norm(bd.ht_weights(spec, -0.45)[:N] * z.coeffs))
        assert abs(norms[-1] - norms[-2]) / norms[-2] < 0.02

    def test_impedance_coefficients_split(self, circle_spec):
        r = fgf.RandomImpedanceSpec(c=1.0, s=0.3, kernel_weights=(1.5,))
        zeta = fgf.sample_random_impedance(circle_spec, r, 32, seed=7)
        phi = fgf.impedance_coefficients(zeta)
        b0 = circle_spec.b0
        assert np.all(phi.coeffs[:b0].imag == 0.0)
        assert np.all(phi.coeffs[b0:].real == 0.0)
        assert np.array_equal(phi.coeffs[b0:].imag, zeta.coeffs[b0:].real)

    def test_selfadjointness_shadow_exact(self, circle_spec, circle_tensor):
        # all kernel weights zero: re part of the operator coefficients is
        # exactly zero for every sample; any positive weight: strictly
        # positive kernel mass for every sample (exact dichotomy)
        r0 = fgf.RandomImpedanceSpec(c=1.0, s=0.4, kernel_weights=(0.0,))
        r1 = fgf.RandomImpedanceSpec(c=1.0, s=0.4, kernel_weights=(0.5,))
        for seed in range(20):
            z0 = fgf.impedance_coefficients(
                fgf.sample_random_impedance(circle_spec, r0, 24, seed))
            assert np.all(z0.coeffs.real == 0.0)
            z1 = fgf.impedance_coefficients(
                fgf.sample_random_impedance(circle_spec, r1, 24, seed))
            assert z1.coeffs[0].real > 0.0
