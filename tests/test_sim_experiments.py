"""Unit tests for the Table-1 / Figure-1 presets (scaled down)."""

import pytest

from repro.api.study import Study
from repro.campaign.spec import default_s_grid
from repro.core import CostModel, Scheme
from repro.model.instantiate import model_interval_for
from repro.sim import format_figure1, format_table1
from repro.sim.results import to_csv


class TestModelIntervalFor:
    def test_abft_schemes_d_is_one(self):
        costs = CostModel()
        for scheme in (Scheme.ABFT_DETECTION, Scheme.ABFT_CORRECTION):
            s, d = model_interval_for(scheme, 1 / 16, costs)
            assert d == 1
            assert s >= 1

    def test_online_uses_chen(self):
        costs = CostModel()
        s, d = model_interval_for(Scheme.ONLINE_DETECTION, 1 / 100, costs)
        assert d > 1  # Chen's d grows with MTBF

    def test_correction_interval_larger(self):
        costs = CostModel()
        s_det, _ = model_interval_for(Scheme.ABFT_DETECTION, 1 / 16, costs)
        s_cor, _ = model_interval_for(Scheme.ABFT_CORRECTION, 1 / 16, costs)
        assert s_cor > s_det


class TestSGrid:
    def test_grid_brackets_center(self):
        grid = default_s_grid(10, span=3)
        assert set(range(7, 14)) <= set(grid)
        assert 1 in grid

    def test_grid_respects_cap(self):
        grid = default_s_grid(100, span=5, s_max=20)
        assert max(grid) <= 20


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        return Study.table1(scale=48, reps=2, uids=[2213], s_span=2).run().table1_rows()

    def test_rows_cover_both_schemes(self, rows):
        assert {r.scheme for r in rows} == {"abft-detection", "abft-correction"}

    def test_loss_nonnegative(self, rows):
        # s* is the argmin of the sweep, so Et(s̃) ≥ Et(s*) by
        # construction whenever s̃ was in the grid.
        for r in rows:
            assert r.loss_percent >= -1e-9

    def test_formatting_contains_ids(self, rows):
        text = format_table1(rows)
        assert "2213" in text
        assert "l1%" in text and "l2%" in text

    def test_csv_dump(self, rows, tmp_path):
        path = tmp_path / "t1.csv"
        to_csv(rows, str(path))
        content = path.read_text()
        assert "uid" in content and "2213" in content


class TestFigure1:
    @pytest.fixture(scope="class")
    def points(self):
        study = Study.figure1(scale=48, reps=2, uids=[2213], mtbf_values=[16.0, 500.0])
        return study.run().figure1_points()

    def test_all_schemes_and_mtbfs_present(self, points):
        schemes = {p.scheme for p in points}
        assert schemes == {"online-detection", "abft-detection", "abft-correction"}
        assert {p.normalized_mtbf for p in points} == {16.0, 500.0}

    def test_times_positive(self, points):
        assert all(p.mean_time > 0 for p in points)

    def test_times_decrease_with_mtbf(self, points):
        for scheme in ("abft-detection", "online-detection"):
            by_mtbf = {p.normalized_mtbf: p.mean_time for p in points if p.scheme == scheme}
            assert by_mtbf[500.0] <= by_mtbf[16.0] * 1.25  # allow noise

    def test_formatting(self, points):
        text = format_figure1(points)
        assert "Matrix #2213" in text
        assert "1/alpha" in text


class TestCli:
    def test_main_table1(self, capsys):
        from repro.__main__ import main as _main

        rc = _main(["table1", "--scale", "48", "--reps", "1", "--uids", "2213"])
        assert rc == 0
        assert "2213" in capsys.readouterr().out
