"""Unit tests for result containers and renderers."""

import pytest

from repro.sim.results import (
    Figure1Point,
    Table1Row,
    ascii_panel,
    format_figure1,
    format_table1,
    to_csv,
)


@pytest.fixture
def rows():
    return [
        Table1Row(341, 1000, 2e-3, "abft-detection", 5, 70.0, 7, 65.0, 10),
        Table1Row(341, 1000, 2e-3, "abft-correction", 20, 60.0, 20, 60.0, 10),
    ]


@pytest.fixture
def points():
    out = []
    for scheme in ("online-detection", "abft-detection", "abft-correction"):
        for mtbf in (16.0, 100.0):
            out.append(
                Figure1Point(
                    uid=341, scheme=scheme, alpha=1 / mtbf,
                    mean_time=50.0 + mtbf / 10, sem_time=1.0, s_used=3, d_used=2,
                )
            )
    return out


class TestTable1Row:
    def test_loss_percent(self, rows):
        assert rows[0].loss_percent == pytest.approx((70 - 65) / 65 * 100)
        assert rows[1].loss_percent == 0.0

    def test_loss_zero_time_guard(self):
        r = Table1Row(1, 1, 1e-3, "abft-detection", 1, 0.0, 1, 0.0, 1)
        assert r.loss_percent == 0.0


class TestFigure1Point:
    def test_normalized_mtbf(self, points):
        assert points[0].normalized_mtbf == pytest.approx(16.0)


class TestRenderers:
    def test_table_renders_both_halves(self, rows):
        text = format_table1(rows)
        assert "341" in text
        assert text.count("|") >= 3

    def test_table_renders_missing_half(self, rows):
        text = format_table1(rows[:1])
        assert "-" in text  # blank correction half

    def test_figure_renders_all_schemes(self, points):
        text = format_figure1(points)
        for scheme in ("online-detection", "abft-detection", "abft-correction"):
            assert scheme in text

    def test_ascii_panel_dimensions(self, points):
        text = ascii_panel(points, 341, width=40, height=10)
        lines = text.splitlines()
        assert len([l for l in lines if l.startswith("|")]) == 10
        assert all(len(l) <= 42 for l in lines if l.startswith("|"))

    def test_ascii_panel_renders_all_series(self):
        pts = []
        for scheme, base in [("online-detection", 30), ("abft-detection", 20), ("abft-correction", 10)]:
            for mtbf in (16.0, 100.0, 1000.0):
                pts.append(
                    Figure1Point(
                        uid=1, scheme=scheme, alpha=1 / mtbf,
                        mean_time=base + 100 / mtbf, sem_time=0.0, s_used=1, d_used=1,
                    )
                )
        text = ascii_panel(pts, 1)
        assert "Matrix #1" in text
        for marker in (":", "-", "#"):
            assert marker in text

    def test_ascii_panel_unknown_uid_raises(self):
        with pytest.raises(ValueError):
            ascii_panel([], 5)

    def test_single_rep_point_renders_na_error(self):
        # Regression: reps=1 has no standard error; sem_time is None
        # and the cell must render "±n/a", never divide by zero or
        # claim a numeric ±0.0 uncertainty.
        p = Figure1Point(
            uid=7, scheme="abft-detection", alpha=0.01,
            mean_time=42.0, sem_time=None, s_used=3, d_used=1,
        )
        text = format_figure1([p])
        assert "±n/a" in text
        assert "±0.0" not in text

    def test_ci_points_render_half_width_and_savings(self):
        pts = [
            Figure1Point(
                uid=7, scheme="abft-detection", alpha=0.01,
                mean_time=42.0, sem_time=2.0, s_used=3, d_used=1,
                ci_low=38.0, ci_high=46.0, reps_used=9, reps_cap=50,
            )
        ]
        text = format_figure1(pts)
        assert "± is the CI half-width" in text
        assert "±4.0" in text  # (46 - 38) / 2, preferred over sem
        assert "adaptive sampling: 9/50 reps executed (saved 41, 82.0%)" in text

    def test_legacy_points_render_without_ci_columns(self, points):
        # Pre-adaptive points (no CI, no rep budget) keep the historical
        # layout: no half-width banner, no savings footer.
        text = format_figure1(points)
        assert "CI half-width" not in text
        assert "adaptive sampling" not in text

    def test_table_ci_columns_and_footer(self, rows):
        with_ci = [
            Table1Row(
                341, 1000, 2e-3, "abft-detection", 5, 70.0, 7, 65.0, 10,
                ci_low=68.0, ci_high=72.0, reps_used=33, reps_cap=130,
            ),
            Table1Row(
                341, 1000, 2e-3, "abft-correction", 20, 60.0, 20, 60.0, 10,
                reps_used=26, reps_cap=130,
            ),
        ]
        text = format_table1(with_ci)
        assert "±1" in text and "±2" in text
        assert "2.00" in text   # detection half-width
        assert "n/a" in text    # correction row carries no CI
        assert "adaptive sampling: 59/260 reps executed" in text
        # And the legacy layout is unchanged when no row carries CI.
        legacy = format_table1(rows)
        assert "±1" not in legacy
        assert "adaptive sampling" not in legacy


class TestCsv:
    def test_roundtrip_headers(self, rows, tmp_path):
        path = tmp_path / "rows.csv"
        to_csv(rows, str(path))
        header = path.read_text().splitlines()[0]
        assert header.startswith("uid,n,density,scheme")

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nothing"):
            to_csv([], str(tmp_path / "x.csv"))
