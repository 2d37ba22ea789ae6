"""Tests for experiment configuration, profiles, attack registry and reporting."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.config import BENCH_PROFILE, PAPER_PROFILE, ExperimentConfig
from repro.experiments.registry import available_attacks, build_attack
from repro.experiments.reporting import TableResult, format_table


class TestExperimentConfig:
    def test_defaults_are_paper_defaults(self):
        config = ExperimentConfig()
        assert config.xi == pytest.approx(0.01)
        assert config.rho == pytest.approx(0.05)
        assert config.kappa == 60
        assert config.clip_norm == pytest.approx(1.0)
        assert config.zeta == pytest.approx(1.0)
        assert config.num_factors == 32
        assert config.learning_rate == pytest.approx(0.01)
        assert config.num_epochs == 200
        config.validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"xi": -0.1},
            {"xi": 1.5},
            {"rho": -0.1},
            {"kappa": 0},
            {"clip_norm": 0.0},
            {"zeta": 0.0},
            {"num_target_items": 0},
            {"scale": 0.0},
            {"attack": "fedrecattack", "rho": 0.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**kwargs).validate()

    def test_none_attack_allows_zero_rho(self):
        ExperimentConfig(attack="none", rho=0.0).validate()

    def test_to_federated_config_copies_fields(self):
        config = ExperimentConfig(num_factors=16, learning_rate=0.02, clip_norm=2.0)
        federated = config.to_federated_config()
        assert federated.num_factors == 16
        assert federated.learning_rate == pytest.approx(0.02)
        assert federated.clip_norm == pytest.approx(2.0)

    def test_with_overrides(self):
        config = ExperimentConfig().with_overrides(rho=0.1, dataset="steam-200k")
        assert config.rho == pytest.approx(0.1)
        assert config.dataset == "steam-200k"
        # The original is unchanged (frozen dataclass semantics).
        assert ExperimentConfig().rho == pytest.approx(0.05)


class TestRemovedSamplerKnobs:
    """The negative streams are fixed: the two sampler switches are gone."""

    @pytest.mark.parametrize("knob", ["sampler", "eval_sampler"])
    def test_experiment_config_rejects_knob(self, knob):
        with pytest.raises(TypeError):
            ExperimentConfig(**{knob: "batched"})

    @pytest.mark.parametrize("knob", ["sampler", "eval_sampler"])
    def test_federated_config_rejects_knob(self, knob):
        from repro.federated.config import FederatedConfig

        with pytest.raises(TypeError):
            FederatedConfig(**{knob: "batched"})

    def test_bench_profile_pins_no_sampler(self):
        from dataclasses import replace

        with pytest.raises(TypeError):
            replace(BENCH_PROFILE, sampler="batched")
        applied = BENCH_PROFILE.apply(ExperimentConfig())
        assert not hasattr(applied, "sampler")
        assert not hasattr(applied, "eval_sampler")

    def test_registry_has_fourteen_switches(self):
        from repro.federated.switches import SWITCH_REGISTRY, switch_names

        assert len(SWITCH_REGISTRY) == 14
        assert "sampler" not in switch_names()
        assert "eval_sampler" not in switch_names()


class TestProfiles:
    def test_paper_profile_keeps_dataset_and_scale(self):
        config = PAPER_PROFILE.apply(ExperimentConfig(dataset="ml-100k"))
        assert config.dataset == "ml-100k"
        assert config.scale == pytest.approx(1.0)
        assert config.num_epochs == 200
        assert config.num_factors == 32

    def test_bench_profile_uses_mini_datasets(self):
        config = BENCH_PROFILE.apply(ExperimentConfig(dataset="ml-100k"))
        assert config.dataset == "ml-100k-mini"
        assert config.num_epochs < 200
        assert config.num_factors <= 32

    def test_bench_profile_aliases_all_three_datasets(self):
        for name in ("ml-100k", "ml-1m", "steam-200k"):
            assert BENCH_PROFILE.dataset_for(name).endswith("-mini")

    def test_unknown_dataset_passes_through(self):
        assert BENCH_PROFILE.dataset_for("custom") == "custom"
        assert BENCH_PROFILE.scale_for("custom") == pytest.approx(1.0)

    def test_profile_preserves_attack_knobs(self):
        config = BENCH_PROFILE.apply(ExperimentConfig(xi=0.03, rho=0.1, kappa=40))
        assert config.xi == pytest.approx(0.03)
        assert config.rho == pytest.approx(0.1)
        assert config.kappa == 40


class TestAttackRegistry:
    def test_available_attacks_contains_all_paper_methods(self):
        names = available_attacks()
        for expected in ("none", "fedrecattack", "random", "bandwagon", "popular",
                         "eb", "pipattack", "p1", "p2", "p3", "p4"):
            assert expected in names

    def test_none_returns_no_attack(self, small_public):
        assert build_attack(ExperimentConfig(attack="none", rho=0.0), small_public) is None

    @pytest.mark.parametrize("name", ["fedrecattack", "random", "bandwagon", "popular",
                                      "eb", "pipattack", "p1", "p2", "p3", "p4"])
    def test_every_attack_instantiates(self, name, small_public):
        attack = build_attack(ExperimentConfig(attack=name), small_public)
        assert attack is not None

    def test_unknown_attack_rejected(self, small_public):
        with pytest.raises(ConfigurationError):
            build_attack(ExperimentConfig(attack="unknown"), small_public)

    def test_fedrecattack_receives_config_knobs(self, small_public):
        attack = build_attack(
            ExperimentConfig(attack="fedrecattack", kappa=40, zeta=2.0, clip_norm=0.5),
            small_public,
        )
        assert attack.config.kappa == 40
        assert attack.config.step_size == pytest.approx(2.0)
        assert attack.config.clip_norm == pytest.approx(0.5)

    def test_case_insensitive_names(self, small_public):
        attack = build_attack(ExperimentConfig(attack="FedRecAttack"), small_public)
        assert attack is not None


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["A", "Metric"], [["x", "1.0"], ["longer", "2.0"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[1] and "Metric" in lines[1]
        assert len(lines) == 5

    def test_table_result_to_text_contains_rows(self):
        table = TableResult(
            title="Demo", headers=["Attack", "ER@10"], rows=[["FedRecAttack", "0.9"]]
        )
        text = table.to_text()
        assert "Demo" in text
        assert "FedRecAttack" in text
        assert str(table) == text

    def test_format_table_pads_short_rows(self):
        text = format_table(["A", "B"], [["only-a"]])
        assert "only-a" in text
