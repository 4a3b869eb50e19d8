"""State-sum invariants at roots of unity: normalization, Kirby
invariance, quotient-group consistency."""

import mpmath as mp
import pytest

from plumbq import wrt
from plumbq.catalog import brieskorn_2_3_7, brieskorn_2_3_7_alt, lens_m5_11
from plumbq.lie import gamma_factor
from plumbq.plumbing import PlumbingGraph, kirby_neumann_move, lens_chain
from plumbq.wrt import wrt_osp, wrt_so3, wrt_su2, wrt_sun_zm

TOL = 1e-9


def sphere():
    return PlumbingGraph.build([-1], [])


def close(a, b, tol=TOL):
    return abs(mp.mpc(a) - mp.mpc(b)) < tol


class TestSphereNormalization:
    def test_su2(self):
        for k in (1, 2, 3, 5):
            assert close(wrt_su2(sphere(), k).value, 1)

    def test_so3(self):
        for K in (2, 4, 6):
            assert close(wrt_so3(sphere(), K).value, 1)

    def test_osp(self):
        for Khat in (1, 2, 3):
            assert close(wrt_osp(sphere(), Khat).value, 1)

    def test_sun_zm(self):
        for N, m in ((2, 1), (2, 2), (3, 1)):
            assert close(wrt_sun_zm(sphere(), N, m, 4).value, 1)

    def test_sphere_presentations_agree(self):
        # the (-2,-1) chain blows down to a single -1 unknot
        g = PlumbingGraph.build([-2, -1], [(0, 1)])
        assert close(wrt_su2(g, 4).value, 1)


class TestKirbyInvariance:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_brieskorn_presentations(self, k):
        a = wrt_su2(brieskorn_2_3_7(), k).value
        b = wrt_su2(brieskorn_2_3_7_alt(), k).value
        assert close(a, b)

    def test_lens_blow_up(self):
        g = lens_chain(7, 2)
        g2 = kirby_neumann_move(
            g, {"kind": "blow_up", "sign": -1, "at": 0, "new_id": 9})
        for k in (2, 3, 5, 8, 10):
            assert close(wrt_su2(g, k).value, wrt_su2(g2, k).value)

    def test_so3_kirby(self):
        g = lens_chain(5, 3)
        g2 = kirby_neumann_move(
            g, {"kind": "blow_up", "sign": -1, "at": 1, "new_id": 9})
        for K in (2, 4, 6):
            assert close(wrt_so3(g, K).value, wrt_so3(g2, K).value)

    def test_osp_changes_under_blow_up(self):
        # the odd-color state sum lacks the balancing phase, so a blow-up
        # shifts its value; pin that down so a silent change is noticed
        g = lens_chain(5, 3)
        g2 = kirby_neumann_move(
            g, {"kind": "blow_up", "sign": -1, "at": 1, "new_id": 9})
        a, b = wrt_osp(g, 2).value, wrt_osp(g2, 2).value
        assert abs(mp.mpc(a) - mp.mpc(b)) > 1e-3


class TestQuotientConsistency:
    @pytest.mark.parametrize("k", (2, 3, 4, 6))
    def test_m1_is_su2(self, k):
        for g in (lens_chain(7, 2), brieskorn_2_3_7()):
            assert close(wrt_sun_zm(g, 2, 1, k).value,
                         wrt_su2(g, k).value)

    @pytest.mark.parametrize("K", (2, 4, 6))
    def test_m2_is_so3(self, K):
        # level map: the Z2 quotient at bare level k sits at the same root
        # of unity as the odd-color sum at K = 2k (root order 4k + 2)
        for g in (lens_chain(7, 2), lens_m5_11()):
            a = wrt_sun_zm(g, 2, 2, K // 2)
            b = wrt_so3(g, K)
            assert a.root_order == b.root_order
            assert close(a.value, b.value)

    def test_gamma_values(self):
        assert gamma_factor(4, 2) == 2
        assert gamma_factor(6, 2) == 4
        assert gamma_factor(6, 3) == 3


class TestVariantSeparation:
    def test_so3_differs_from_su2_on_a_lens_chain(self):
        # computed inequality at the stated even levels, not assumed
        differs = []
        g = lens_chain(5, 3)
        for K in (2, 4, 6):
            a = wrt_su2(g, K).value
            b = wrt_so3(g, K).value
            differs.append(abs(mp.mpc(a) - mp.mpc(b)) > 1e-6)
        assert any(differs), "SO(3) never separated from SU(2)"


class TestMethods:
    def test_direct_crosschecks_contract(self, monkeypatch):
        graphs = (lens_chain(7, 2), lens_m5_11())
        contracted = [wrt_su2(g, k).value for g in graphs for k in (2, 4)]
        monkeypatch.setattr(wrt, "_tree_sum", wrt._tree_sum_direct)
        direct = [wrt_su2(g, k).value for g in graphs for k in (2, 4)]
        for a, b in zip(contracted, direct):
            assert close(a, b)

    def test_root_orders(self):
        assert wrt_su2(sphere(), 3).root_order == 5
        assert wrt_so3(sphere(), 4).root_order == 10
        assert wrt_osp(sphere(), 2).root_order == 7

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            wrt_su2(sphere(), 0)
        with pytest.raises(ValueError):
            wrt_so3(sphere(), 3)
        with pytest.raises(ValueError):
            wrt_osp(sphere(), 0)
