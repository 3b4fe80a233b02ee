"""Unit tests for the nine-matrix suite registry."""

import pytest

from repro.core.methods import CostModel
from repro.sim import PAPER_SUITE, get_matrix, suite_specs
from repro.sim.matrices import MATRIX_DIR_ENV, SizeFacts, clear_matrix_cache, size_facts
from repro.sparse.validate import is_structurally_valid


class TestSuiteSpecs:
    def test_nine_entries_with_paper_ids(self):
        uids = {s.uid for s in PAPER_SUITE}
        assert uids == {341, 752, 924, 1288, 1289, 1311, 1312, 1848, 2213}

    def test_paper_dimensions_and_densities(self):
        by_id = {s.uid: s for s in PAPER_SUITE}
        assert by_id[341].n == 23052 and by_id[341].density == pytest.approx(2.15e-3)
        assert by_id[752].n == 74752 and by_id[752].density == pytest.approx(1.07e-4)
        assert by_id[2213].n == 20000 and by_id[2213].density == pytest.approx(1.39e-3)

    def test_dimension_range_matches_paper(self):
        assert min(s.n for s in PAPER_SUITE) == 17456 or min(s.n for s in PAPER_SUITE) >= 17456
        assert max(s.n for s in PAPER_SUITE) <= 74752
        assert all(s.density < 1e-2 for s in PAPER_SUITE)

    def test_filter_by_uid(self):
        specs = suite_specs([341, 1312])
        assert [s.uid for s in specs] == [341, 1312]

    def test_unknown_uid_rejected(self):
        with pytest.raises(KeyError, match="unknown"):
            suite_specs([999])


class TestInstantiation:
    def test_scaled_instantiation_valid_and_spd_shaped(self):
        for spec in PAPER_SUITE:
            a = spec.instantiate(scale=64)
            assert is_structurally_valid(a)
            assert a.nrows == a.ncols
            assert a.nrows >= 512

    def test_scaling_preserves_row_density(self):
        spec = suite_specs([341])[0]
        a_small = spec.instantiate(scale=64)
        a_mid = spec.instantiate(scale=16)
        per_row_small = a_small.nnz / a_small.nrows
        per_row_mid = a_mid.nnz / a_mid.nrows
        assert per_row_small == pytest.approx(per_row_mid, rel=0.15)

    def test_nnz_per_row_matches_paper_density(self):
        for spec in PAPER_SUITE:
            a = spec.instantiate(scale=32)
            # Interior stencil size should approximate density·n of the
            # paper entry (boundary rows pull the average down a bit).
            assert a.nnz / a.nrows == pytest.approx(spec.nnz_per_row, rel=0.45)

    def test_get_matrix_cached(self):
        a1 = get_matrix(341, scale=64)
        a2 = get_matrix(341, scale=64)
        assert a1 is a2

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            suite_specs([341])[0].instantiate(scale=0)

    def test_deterministic(self):
        spec = suite_specs([924])[0]
        assert spec.instantiate(scale=64).equals(spec.instantiate(scale=64))


class TestSizeFacts:
    """Compile reads a matrix's size in closed form; these lock it to
    the synthesized matrix's counts, and the cost model built from them
    to the one built from the matrix, float for float."""

    SCALES = (1, 2, 4, 8, 16, 32, 64, 128, 10**4)

    @pytest.fixture(autouse=True)
    def _no_registry_and_no_kept_matrices(self, monkeypatch):
        monkeypatch.delenv(MATRIX_DIR_ENV, raising=False)
        yield
        clear_matrix_cache()  # every suite matrix at every scale: don't keep them

    @pytest.mark.parametrize("uid", [s.uid for s in PAPER_SUITE])
    def test_closed_form_equals_the_synthesized_matrix(self, uid):
        for scale in self.SCALES:
            a = get_matrix(uid, scale)
            facts = size_facts(uid, scale)
            assert facts == (a.nrows, a.nnz, a.memory_words), scale
            assert facts == suite_specs([uid])[0].size_facts(scale)
            assert CostModel.from_matrix(facts) == CostModel.from_matrix(a), scale

    def test_a_uid_registered_at_paper_scale_takes_the_file(self, tmp_path, monkeypatch):
        from repro.sparse import stencil_spd
        from repro.sparse.io import save_matrix_market

        real = stencil_spd(81, kind="box", radius=2)
        save_matrix_market(real, tmp_path / "1312.mtx")
        monkeypatch.setenv(MATRIX_DIR_ENV, str(tmp_path))
        assert size_facts(1312, 1) == SizeFacts(real.nrows, real.nnz, real.memory_words)
        assert size_facts(str(tmp_path / "1312.mtx")) == size_facts(1312, 1)
        # Scaled-down requests keep the closed form of the suite entry.
        assert size_facts(1312, 64) == suite_specs([1312])[0].size_facts(64)

    def test_unknown_uid_and_bad_scale_raise_as_get_matrix_does(self):
        with pytest.raises(KeyError, match="unknown matrix ids"):
            size_facts(4242, 8)
        with pytest.raises(ValueError, match="scale must be >= 1"):
            size_facts(341, 0)
