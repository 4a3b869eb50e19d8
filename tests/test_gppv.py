"""Block decomposition vs state sum, reciprocity identities, radial limits."""

import random

import mpmath as mp
import pytest

from plumbq.catalog import poincare_sphere
from plumbq.gppv import (
    gauss_reciprocity_check,
    gppv_verify,
    report_to_json,
    root_limit_periodic,
)
from plumbq.plumbing import PlumbingGraph, lens_chain, linking_matrix
from plumbq.qlaurent import QSeries


class TestLensExact:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_su2_residual_tiny(self, k):
        rep = gppv_verify(lens_chain(7, 2), "su2", k, order=60,
                          eps_schedule=None)
        assert rep.residual < 1e-8

    def test_second_chain(self):
        rep = gppv_verify(lens_chain(5, 3), "su2", 5, order=60,
                          eps_schedule=None)
        assert rep.residual < 1e-8

    @pytest.mark.parametrize("pq", [(7, 3), (8, 5)])
    @pytest.mark.parametrize("variant,level,kw", [
        ("su2", 3, {}), ("so3", 4, {}), ("sun-zm", 3, {"N": 2, "m": 2})])
    def test_odd_chains(self, pq, variant, level, kw):
        # three vertices, so det B < 0: the cokernel phases carry its sign
        g = lens_chain(*pq)
        assert linking_matrix(g).det < -1
        rep = gppv_verify(g, variant, level, order=60, eps_schedule=None,
                          **kw)
        assert rep.residual < 1e-8, rep

    @pytest.mark.parametrize("dps", (0, -5))
    def test_rejects_precision_below_one(self, dps):
        with pytest.raises(ValueError, match="precision must be at least 1"):
            gppv_verify(lens_chain(7, 2), "su2", 3, order=60, dps=dps)

    def test_report_json(self):
        rep = gppv_verify(lens_chain(7, 2), "su2", 3, order=60,
                          eps_schedule=None)
        obj = report_to_json(rep)
        assert obj["variant"] == "su2"
        assert obj["residual"] < 1e-8


class TestPoincareRadial:
    @pytest.mark.parametrize("k", (3, 4, 5))
    def test_su2_periodic_tail(self, k):
        rep = gppv_verify(poincare_sphere(), "su2", k, order=8000)
        assert rep.residual < 1e-3, rep


class TestNegativeControl:
    def test_so3_without_shift_fails(self):
        g = PlumbingGraph.build([-2, -2], [(0, 1)])
        good = gppv_verify(g, "so3", 4, order=60, eps_schedule=None)
        bad = gppv_verify(g, "so3", 4, order=60, eps_schedule=None,
                          shift_BI=False)
        assert good.residual < 1e-8
        assert bad.residual > 0.1


class TestGaussReciprocity:
    def test_randomized_cases(self):
        rng = random.Random(8)
        count = 0
        while count < 20:
            L = rng.randint(1, 3)
            edges = [(rng.randrange(i + 1), i + 1) for i in range(L - 1)]
            deg = [0] * L
            for a, b in edges:
                deg[a] += 1
                deg[b] += 1
            g = PlumbingGraph.build(
                [-(deg[i] + rng.randint(1, 3)) for i in range(L)], edges)
            B = [list(r) for r in linking_matrix(g).B]
            ell = [rng.randint(-3, 3) for _ in range(L)]
            k = rng.randint(1, 4)
            res = gauss_reciprocity_check(B, ell, k)
            assert res["even"] < 1e-9, (B, ell, k, res)
            assert res["odd"] < 1e-9, (B, ell, k, res)
            count += 1

    def test_indefinite_matrix_also_works(self):
        # reciprocity holds for any nonsingular symmetric form
        res = gauss_reciprocity_check([[2, 1], [1, -2]], [1, 0], 3)
        assert res["even"] < 1e-9 and res["odd"] < 1e-9

    def test_singular_matrix_is_rejected(self):
        with pytest.raises(ValueError, match="matrix is singular"):
            gauss_reciprocity_check([[1, 2], [2, 4]], [0, 1], 2)


class TestRootLimitPeriodic:
    def test_geometric_series_at_fourth_root(self):
        # partial sums of 1/(1-q) at q = i cycle with period 4 and their
        # mean is the radial limit 1/(1-i)
        s = QSeries.from_terms({n: 1 for n in range(60)})
        val, period = root_limit_periodic(s, 4)
        assert period is not None and period % 4 == 0
        want = 1 / (1 - mp.mpc(0, 1))
        assert abs(val - want) < 1e-2

    def test_undetectable_returns_none(self):
        # partial sums of a growing geometric-type tail never settle
        s = QSeries.from_terms({k: 2 ** k for k in range(12)})
        val, period = root_limit_periodic(s, 5)
        assert val is None and period is None
