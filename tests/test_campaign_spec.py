"""Campaign specs: grid expansion, content hashing, picklability."""

import pickle

import pytest

from repro.api.study import Study
from repro.campaign import CampaignSpec, TaskSpec
from repro.core import CostModel, Scheme, SchemeConfig
from repro.sim.engine import RunStatistics


class TestTaskSpec:
    def test_hash_is_content_derived(self):
        a = TaskSpec("table1", uid=2213, scale=48, scheme="abft-detection",
                     alpha=1 / 16, s=5, labels=("table1", 2213, "s", 5))
        b = TaskSpec("table1", uid=2213, scale=48, scheme="abft-detection",
                     alpha=1 / 16, s=5, labels=("table1", 2213, "s", 5))
        assert a.task_hash() == b.task_hash()

    def test_hash_distinguishes_fields(self):
        base = dict(experiment="table1", uid=2213, scale=48,
                    scheme="abft-detection", alpha=1 / 16, s=5)
        ref = TaskSpec(**base).task_hash()
        for tweak in (dict(s=6), dict(uid=341), dict(alpha=1 / 32),
                      dict(reps=11), dict(base_seed=7), dict(labels=("x",))):
            assert TaskSpec(**{**base, **tweak}).task_hash() != ref

    def test_hash_stable_across_sessions(self):
        # Regression pin: a changed hash silently invalidates every
        # existing result store.  (Schema v4: the `sampling` policy —
        # adaptive sequential stopping — entered the hash, after v3's
        # `backend` kernel axis and v2's `method` solver axis.)
        t = TaskSpec("table1", uid=2213, scale=48, scheme="abft-detection",
                     alpha=0.0625, s=5, labels=("table1", 2213, "s", 5))
        assert t.task_hash() == (
            "96e27dde61b7f2dff3c6dda5a25318f828d169f446cda4473846b93b66bf6482"
        )

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    def test_eps_must_be_finite_and_positive(self, eps):
        # A stopping threshold the engine cannot honour fails when the
        # task is built, so a bad Study.fix(eps=...) fails at compile.
        with pytest.raises(ValueError, match="eps must be"):
            TaskSpec("table1", uid=2213, scale=48, scheme="abft-detection",
                     alpha=0.0625, s=5, eps=eps)
        study = Study("bad-eps").axis("s", [4]).fix(
            uid=2213, scale=48, reps=1, alpha=1 / 16, eps=eps
        )
        with pytest.raises(ValueError, match="eps must be"):
            study.tasks()

    @pytest.mark.parametrize("eps, digest", [
        (1e-8, "656093dd160fb58ea789974a3e2022e78f766bb27b3cb6da2d271eabf62640f9"),
        (0.5, "d5a98b82792eeea96091ee9ee91659afdbade7681a4669a62ca0f3c3fb5ff7ef"),
        (5e-324, "5bb5909068051bec768421ad7bbfa6eb6012c023da32a9d3f210e470a91b7bea"),
        (1e300, "1540a1b18618e21f3d3c00ae412cfd28f731ba04213aef5c5e50acff5895fded"),
    ], ids=["1e-08", "0.5", "5e-324", "1e+300"])
    def test_valid_eps_hashes_as_before(self, eps, digest):
        # Regression pin: the eps check rejects, it never rewrites, so
        # every valid eps (the subnormal minimum included) keeps its hash.
        t = TaskSpec("figure1", uid=341, scale=16, scheme="online-detection",
                     alpha=0.01, s=9, d=3, eps=eps)
        assert t.task_hash() == digest

    @pytest.mark.parametrize("field, value", [
        ("alpha", float("nan")), ("alpha", -1.0), ("alpha", float("inf")),
        ("s", float("nan")), ("s", 2.5), ("s", float("inf")), ("s", 0), ("s", -3),
        ("d", float("nan")), ("d", 2.5), ("d", float("-inf")), ("d", 0),
    ])
    def test_point_values_no_task_can_take_are_rejected(self, field, value):
        # A point no solve can run fails when the task is built, so a
        # bad Study.fix(...) or spec file fails at compile.
        base = dict(experiment="t", uid=2213, scale=48, scheme="online-detection",
                    alpha=0.0625, s=5, d=2)
        with pytest.raises(ValueError, match=f"{field} must be"):
            TaskSpec(**{**base, field: value})

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_study_with_a_non_finite_rate_is_refused(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            Study("bad-alpha").axis("s", [4]).fix(uid=2213, scale=48, reps=1, alpha=alpha)

    @pytest.mark.parametrize("spec, digest", [
        (dict(experiment="table1", uid=2213, scale=16, scheme="abft-correction",
              alpha=1 / 16, s=4),
         "4cbca424c90cb100bf19c0edd35397cce73d481691f62b11983235eb7821b6d1"),
        (dict(experiment="figure1", uid=1312, scale=32, scheme="online-detection",
              alpha=0.01, s=3, d=5, reps=7, labels=("figure1", 1312, 100.0), s_model=3),
         "240c1c663cc1e1a7329589a2d6e210c9155900b10c2f2184fe220b7bf91ec4da"),
        (dict(experiment="t", uid=2213, scale=64, scheme="abft-detection", alpha=0.0,
              s=1, d=1, method="pcg", backend="scipy"),
         "f052635e7992d6abbc9431f7bf53b735e1543223caf160e9856959d3a3dcebd6"),
        (dict(experiment="t", uid=341, scale=8, scheme="abft-correction", alpha=0.25,
              s=12, method="bicgstab", backend="reference", reps=40,
              sampling="ci=0.05,conf=0.95,min=4,max=40,batch=4"),
         "9ecb9368ac2f2aab7da13fbbe765cf0472b818bbd82d1b5f9fb3b25bc886aead"),
        (dict(experiment="t", uid=2213, scale=16, scheme="abft-correction",
              alpha=1 / 16, s=4.0, d=1.0),
         "1e3c834872e7677a28609b22d392c5592fe22cddefe0ae12a672d0361b2c5044"),
    ], ids=["table1", "online", "scipy", "adaptive", "whole-floats"])
    def test_valid_points_hash_as_before(self, spec, digest):
        # Regression pin: the alpha / s / d checks reject, they never
        # rewrite, so every valid point keeps its hash.
        assert TaskSpec(**spec).task_hash() == digest

    def test_method_in_hash(self):
        base = dict(experiment="table1", uid=2213, scale=48,
                    scheme="abft-detection", alpha=0.0625, s=5)
        assert (TaskSpec(**base, method="pcg").task_hash()
                != TaskSpec(**base).task_hash())

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            TaskSpec("table1", uid=1, scale=1, scheme="abft-detection",
                     alpha=0.1, s=1, method="gmres")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            TaskSpec("table1", uid=1, scale=1, scheme="abft",
                     alpha=0.1, s=1)

    def test_from_json_inverts_to_json(self):
        t = TaskSpec("figure1", uid=341, scale=16, scheme="online-detection",
                     alpha=0.01, s=9, d=3, labels=("figure1", 341, 100.0),
                     method="cg")
        clone = TaskSpec.from_json(t.to_json())
        assert clone == t
        assert clone.task_hash() == t.task_hash()

    def test_from_json_rejects_unknown_fields(self):
        t = TaskSpec("table1", uid=1, scale=1, scheme="abft-detection",
                     alpha=0.1, s=1)
        data = t.to_json()
        data["solver"] = "cg"
        with pytest.raises(ValueError, match="unknown TaskSpec fields"):
            TaskSpec.from_json(data)

    def test_validation(self):
        with pytest.raises(ValueError):
            TaskSpec("table1", uid=1, scale=1, scheme="abft-detection",
                     alpha=0.1, s=0)
        with pytest.raises(ValueError):
            TaskSpec("table1", uid=1, scale=1, scheme="abft-detection",
                     alpha=0.1, s=1, reps=0)

    def test_to_json_roundtrips_labels(self):
        t = TaskSpec("figure1", uid=341, scale=16, scheme="online-detection",
                     alpha=0.01, s=9, d=3, labels=("figure1", 341, 100.0))
        d = t.to_json()
        assert d["labels"] == ["figure1", 341, 100.0]
        assert d["scheme"] == "online-detection"


class TestTaskSpecSampling:
    SPEC = "ci=0.05,conf=0.95,min=5,max=20"

    def _task(self, **kw):
        base = dict(experiment="table1", uid=1, scale=1,
                    scheme="abft-detection", alpha=0.1, s=5)
        return TaskSpec(**{**base, **kw})

    def test_sampling_is_task_identity(self):
        # The policy changes *which result the task stands for* (rep
        # count becomes data-dependent), so it must enter the hash.
        fixed = self._task(reps=20)
        adaptive = self._task(reps=20, sampling=self.SPEC)
        assert fixed.task_hash() != adaptive.task_hash()
        other = self._task(reps=20,
                           sampling="ci=0.1,conf=0.95,min=5,max=20")
        assert other.task_hash() != adaptive.task_hash()

    def test_sampling_must_be_canonical(self):
        # Hash aliasing guard: two spellings of one policy must not
        # produce two hashes, so only the canonical spelling is legal.
        with pytest.raises(ValueError, match="canonical"):
            self._task(reps=20, sampling="max=20,min=5,conf=0.95,ci=0.05")

    def test_reps_must_equal_policy_cap(self):
        with pytest.raises(ValueError, match="policy rep cap"):
            self._task(reps=10, sampling=self.SPEC)

    def test_adaptive_task_roundtrips_json(self):
        t = self._task(reps=20, sampling=self.SPEC)
        clone = TaskSpec.from_json(t.to_json())
        assert clone == t
        assert clone.task_hash() == t.task_hash()

    def test_campaign_spec_canonicalizes_and_sets_cap(self):
        spec = CampaignSpec(
            kind="figure1", scale=16, reps=3, uids=(2213,),
            mtbf_values=(100.0,),
            sampling="max=20,min=5,conf=0.95,ci=0.05",
        )
        assert spec.sampling == self.SPEC
        tasks = spec.expand()
        assert tasks
        # Adaptive expansion ignores `reps` in favour of the policy cap
        # (reps - stats.reps is then the per-task savings).
        assert all(t.reps == 20 for t in tasks)
        assert all(t.sampling == self.SPEC for t in tasks)

    def test_campaign_spec_without_sampling_unchanged(self):
        spec = CampaignSpec(kind="figure1", scale=16, reps=3, uids=(2213,),
                            mtbf_values=(100.0,))
        assert spec.sampling == ""
        assert all(t.reps == 3 and t.sampling == "" for t in spec.expand())


class TestCampaignSpecExpansion:
    def test_table1_matches_serial_grid(self):
        from repro.campaign.spec import TABLE1_ALPHA, default_s_grid
        from repro.model.instantiate import model_interval_for
        from repro.sim.matrices import get_matrix

        spec = CampaignSpec(kind="table1", scale=48, reps=2, uids=(2213,), s_span=2)
        tasks = spec.expand()
        costs = CostModel.from_matrix(get_matrix(2213, 48))
        expected = []
        for scheme in (Scheme.ABFT_DETECTION, Scheme.ABFT_CORRECTION):
            s_model, _ = model_interval_for(scheme, TABLE1_ALPHA, costs)
            expected += [(scheme.value, s, s_model)
                         for s in default_s_grid(s_model, span=2)]
        assert [(t.scheme, t.s, t.s_model) for t in tasks] == expected
        # labels are exactly the serial drivers' seed tuple
        assert all(t.labels == ("table1", 2213, "s", t.s) for t in tasks)

    def test_figure1_grid_shape(self):
        spec = CampaignSpec(kind="figure1", scale=48, reps=2, uids=(2213,),
                            mtbf_values=(16.0, 500.0))
        tasks = spec.expand()
        assert len(tasks) == 2 * 3  # mtbfs x schemes
        assert {t.scheme for t in tasks} == {
            "online-detection", "abft-detection", "abft-correction"}
        assert all(t.alpha in (1 / 16.0, 1 / 500.0) for t in tasks)
        online = [t for t in tasks if t.scheme == "online-detection"]
        assert all(t.d >= 1 for t in online)

    @pytest.mark.parametrize("mtbf", [0.0, -1.0, float("inf"), float("nan")])
    def test_mtbf_values_no_campaign_can_take_are_rejected(self, mtbf):
        # 1/mtbf would divide by zero, or give a rate no task can take.
        with pytest.raises(ValueError, match="mtbf_values must be finite and > 0"):
            CampaignSpec(kind="figure1", scale=48, uids=(2213,), mtbf_values=(100.0, mtbf))

    def test_figure1_preset_refuses_a_zero_mtbf(self):
        with pytest.raises(ValueError, match="mtbf_values must be finite and > 0"):
            Study.figure1(scale=48, uids=[2213], mtbf_values=[0.0])

    def test_expansion_is_deterministic(self):
        spec = CampaignSpec(kind="table1", scale=48, reps=2, uids=(2213,), s_span=2)
        h1 = [t.task_hash() for t in spec.expand()]
        h2 = [t.task_hash() for t in spec.expand()]
        assert h1 == h2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(kind="table2")

    def test_clipped_model_interval_fails_at_expansion(self):
        # α small enough that the Eq.-6 optimum exceeds the sweep
        # ceiling: the campaign must refuse up front, not after hours
        # of compute when aggregation misses Et(s~).
        spec = CampaignSpec(kind="table1", scale=48, uids=(2213,), alpha=1e-4)
        with pytest.raises(ValueError, match="outside the sweep grid"):
            spec.expand()

    def test_negative_s_span_rejected(self):
        with pytest.raises(ValueError, match="s_span"):
            CampaignSpec(kind="table1", s_span=-3)

    def test_empty_uids_expands_to_nothing(self):
        # () means "no matrices", matching the serial drivers' old
        # suite_specs([]) behavior — not "the whole suite".
        assert CampaignSpec(kind="table1", uids=()).expand() == []
        assert CampaignSpec(kind="figure1", uids=()).expand() == []

    def test_empty_uids_through_presets(self):
        from repro.api.study import Study

        assert Study.table1(scale=48, reps=1, uids=[]).run().table1_rows() == []
        figure1 = Study.figure1(scale=48, reps=1, uids=[], mtbf_values=[16.0])
        assert figure1.run().figure1_points() == []

    def test_model_s_max_widens_search(self):
        from repro.model.instantiate import model_interval_for

        costs = CostModel()
        # A tiny ceiling clamps the optimum; the default does not.
        s_clamped, _ = model_interval_for(Scheme.ABFT_CORRECTION, 1 / 16,
                                          costs, s_max=2)
        s_free, _ = model_interval_for(Scheme.ABFT_CORRECTION, 1 / 16, costs)
        assert s_clamped <= 2 < s_free


class TestPicklability:
    """Everything that crosses the worker-process boundary must pickle."""

    def test_core_config_objects_roundtrip(self):
        for obj in (
            Scheme.ABFT_CORRECTION,
            CostModel(),
            SchemeConfig(Scheme.ABFT_DETECTION, checkpoint_interval=5),
            SchemeConfig(Scheme.ONLINE_DETECTION, checkpoint_interval=3,
                         verification_interval=4),
        ):
            assert pickle.loads(pickle.dumps(obj)) == obj

    def test_task_and_stats_roundtrip(self):
        t = TaskSpec("table1", uid=2213, scale=48, scheme="abft-detection",
                     alpha=1 / 16, s=5, labels=("table1", 2213, "s", 5))
        assert pickle.loads(pickle.dumps(t)) == t
        st = RunStatistics(mean_time=1.0, std_time=0.1, min_time=0.9,
                           max_time=1.2, mean_iterations=10.0,
                           mean_rollbacks=0.0, mean_corrections=0.0,
                           mean_faults=0.5, convergence_rate=1.0, reps=2)
        assert pickle.loads(pickle.dumps(st)) == st
