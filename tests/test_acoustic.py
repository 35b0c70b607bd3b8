import math

import numpy as np

from acouz import acoustic as ac


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
