"""Unit tests for scheme descriptors and the cost model."""

import pytest

from repro.core import CostModel, Scheme, SchemeConfig


class TestScheme:
    def test_flags(self):
        assert not Scheme.ONLINE_DETECTION.uses_abft
        assert Scheme.ABFT_DETECTION.uses_abft
        assert Scheme.ABFT_CORRECTION.uses_abft
        assert Scheme.ABFT_CORRECTION.corrects
        assert not Scheme.ABFT_DETECTION.corrects

    def test_parse_accepts_strings_and_members(self):
        assert Scheme.parse("abft-correction") is Scheme.ABFT_CORRECTION
        assert Scheme.parse("ABFT-Detection") is Scheme.ABFT_DETECTION
        assert Scheme.parse(Scheme.ONLINE_DETECTION) is Scheme.ONLINE_DETECTION

    def test_parse_error_lists_valid_values(self):
        with pytest.raises(ValueError) as excinfo:
            Scheme.parse("abft")
        msg = str(excinfo.value)
        assert "abft" in msg
        for s in Scheme:
            assert s.value in msg


class TestMethodParse:
    def test_parse_accepts_strings_and_members(self):
        from repro.core import Method

        assert Method.parse("cg") is Method.CG
        assert Method.parse("PCG") is Method.PCG
        assert Method.parse(Method.BICGSTAB) is Method.BICGSTAB

    def test_parse_error_lists_valid_values(self):
        from repro.core import Method

        with pytest.raises(ValueError, match="cg, bicgstab, pcg"):
            Method.parse("gmres")


class TestCostModel:
    def test_defaults_ordering(self):
        c = CostModel()
        assert c.t_verif_detect < c.t_verif_correct < c.t_verif_online

    def test_verification_cost_dispatch(self):
        c = CostModel()
        assert c.verification_cost(Scheme.ONLINE_DETECTION) == c.t_verif_online
        assert c.verification_cost(Scheme.ABFT_DETECTION) == c.t_verif_detect
        assert c.verification_cost(Scheme.ABFT_CORRECTION) == c.t_verif_correct

    def test_from_matrix_hierarchy(self, small_spd):
        c = CostModel.from_matrix(small_spd)
        # The paper's cost hierarchy: ABFT checksum overhead below
        # Chen's (one extra SpMxV) verification; detection below
        # correction.
        assert c.t_verif_detect < c.t_verif_correct < c.t_verif_online
        assert c.t_iter == 1.0

    def test_from_matrix_abft_cheaper_for_denser_matrices(self):
        from repro.sparse import stencil_spd

        sparse = stencil_spd(900, kind="cross", radius=1)  # 5/row
        dense = stencil_spd(900, kind="box", radius=3)  # 49/row
        c_sparse = CostModel.from_matrix(sparse)
        c_dense = CostModel.from_matrix(dense)
        assert c_dense.t_verif_correct < c_sparse.t_verif_correct

    def test_include_tmr_increases_abft_costs(self, small_spd):
        base = CostModel.from_matrix(small_spd)
        tmr = CostModel.from_matrix(small_spd, include_tmr=True)
        assert tmr.t_verif_detect > base.t_verif_detect
        assert tmr.t_verif_correct > base.t_verif_correct
        assert tmr.t_verif_online == base.t_verif_online


class TestSchemeConfig:
    def test_defaults(self):
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION)
        assert cfg.checkpoint_interval == 10
        assert cfg.verification_interval == 1
        assert cfg.chunk_time == 1.0

    def test_online_chunk_time(self):
        cfg = SchemeConfig(Scheme.ONLINE_DETECTION, verification_interval=5)
        assert cfg.chunk_time == 5.0

    def test_abft_requires_d_one(self):
        with pytest.raises(ValueError, match="every iteration"):
            SchemeConfig(Scheme.ABFT_DETECTION, verification_interval=3)

    def test_with_intervals(self):
        cfg = SchemeConfig(Scheme.ONLINE_DETECTION, checkpoint_interval=4, verification_interval=2)
        new = cfg.with_intervals(s=7)
        assert new.checkpoint_interval == 7
        assert new.verification_interval == 2
        new2 = cfg.with_intervals(d=9)
        assert new2.verification_interval == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=0)
        with pytest.raises(ValueError):
            SchemeConfig(Scheme.ONLINE_DETECTION, verification_interval=0)

    @pytest.mark.parametrize("field", ["checkpoint_interval", "verification_interval"])
    @pytest.mark.parametrize("value", [2.5, float("nan"), float("inf")])
    def test_a_fractional_or_non_finite_interval_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a whole number >= 1"):
            SchemeConfig(Scheme.ONLINE_DETECTION, **{field: value})

    def test_a_whole_float_interval_runs_as_its_int(self):
        import numpy as np

        from repro.resilience import run_ft_method
        from repro.sparse import laplacian_2d

        a = laplacian_2d(8)
        b = np.ones(a.nrows)
        kw = dict(alpha=0.2, rng=3, eps=1e-8)
        as_float = run_ft_method(
            "cg", a, b, SchemeConfig(Scheme.ONLINE_DETECTION, 4.0, 2.0), **kw)
        as_int = run_ft_method("cg", a, b, SchemeConfig(Scheme.ONLINE_DETECTION, 4, 2), **kw)
        assert as_float.x.tobytes() == as_int.x.tobytes()
        assert as_float.time_units == as_int.time_units

    def test_verification_cost_property(self):
        costs = CostModel(t_verif_correct=0.42)
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION, costs=costs)
        assert cfg.verification_cost == 0.42
