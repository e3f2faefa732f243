"""Experiment runner: configs, artifacts, determinism, sweeps."""

import json
from pathlib import Path

import numpy as np
import pytest

from gnncl.continual.strategies import ConfigError, TwpStrategy
from gnncl.harness.runner import (
    ABLATION_PRESET,
    SBM_DEFAULTS,
    resolve_sweep,
    resolved_dict,
    run_config_from_dict,
    run_sequence,
    sweep_and_report,
)
from gnncl.nn import ModelConfig, ModelError

TOY = {
    "dataset": {"kind": "sbm", "num_classes": 4, "classes_per_task": 2,
                "nodes_per_class": 8, "p_in": 0.3, "p_out": 0.05,
                "feature_dim": 5, "noise_sigma": 0.3,
                "train_fraction": 0.6},
    "model": {"backbone": "gcn", "hidden_dim": 8},
    "strategy": {"kind": "FINETUNE", "epochs": 5},
    "seed": 1,
}


def toy_cfg(**extra):
    raw = json.loads(json.dumps(TOY))
    raw.update(extra)
    return raw


class TestRunConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            run_config_from_dict(toy_cfg(optimizer="sgd"))

    def test_bad_metric_rejected(self):
        with pytest.raises(ConfigError):
            run_config_from_dict(toy_cfg(metric="precision"))

    def test_metric_defaults_by_task_type(self):
        assert run_config_from_dict(toy_cfg()).metric == "accuracy"
        graphs = toy_cfg()
        graphs["dataset"] = {"kind": "graphs", "num_tasks": 2,
                             "graphs_per_task": 8, "nodes_min": 5,
                             "nodes_max": 8, "feature_dim": 4,
                             "train_fraction": 0.6}
        assert run_config_from_dict(graphs).metric == "auc"

    def test_seed_must_be_nonnegative_int(self):
        for bad in (-1, True, 1.5, "7"):
            with pytest.raises(ConfigError):
                run_config_from_dict(toy_cfg(seed=bad))

    def test_heads_list_becomes_tuple(self):
        raw = toy_cfg()
        raw["model"] = {"backbone": "gat", "hidden_dim": 8,
                        "heads": [2, 1]}
        assert run_config_from_dict(raw).model.heads == (2, 1)

    def test_head_counts_must_be_positive_ints(self):
        for bad in ([4.0, 1], [True, 1], [0, 1], [2, -1], ["4", 1], 4):
            raw = toy_cfg()
            raw["model"] = {"backbone": "gat", "hidden_dim": 8,
                            "heads": bad}
            with pytest.raises(ConfigError):
                run_config_from_dict(raw)
        with pytest.raises(ModelError):
            ModelConfig(backbone="gat", heads=(2.0, 1))

    def test_fields_of_another_backbone_rejected(self):
        for backbone, fields in (("gcn", {"heads": [8, 8, 8]}),
                                 ("gin", {"attention_slope": 0.1}),
                                 ("gat", {"gin_eps": 0.5}),
                                 ("gcn", {"gin_eps_learnable": True})):
            raw = toy_cfg()
            raw["model"] = dict(fields, backbone=backbone)
            with pytest.raises(ConfigError, match="backbone only"):
                run_config_from_dict(raw)
        # each backbone takes its own fields; its resolved config names
        # no field of another backbone and loads back as the same config
        for backbone, fields in (("gat", {"heads": [2, 1],
                                          "attention_slope": 0.1}),
                                 ("gin", {"gin_eps": 0.5,
                                          "gin_eps_learnable": True}),
                                 ("gcn", {})):
            raw = toy_cfg()
            raw["model"] = dict(fields, backbone=backbone)
            cfg = run_config_from_dict(raw)
            resolved = resolved_dict(cfg)
            assert set(fields) <= set(resolved["model"])
            assert run_config_from_dict(resolved) == cfg

    def test_dataset_defaults_fill_in(self):
        cfg = run_config_from_dict({"dataset": {"kind": "sbm"}})
        for key, val in SBM_DEFAULTS.items():
            assert cfg.dataset[key] == val

    def test_bad_strategy_field_rejected(self):
        raw = toy_cfg()
        raw["strategy"] = {"kind": "FINETUNE", "momentum": 0.9}
        with pytest.raises(ConfigError):
            run_config_from_dict(raw)


class TestRunSequence:
    def test_artifacts_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        res_a = run_sequence(run_config_from_dict(
            toy_cfg(out_dir=str(a))))
        res_b = run_sequence(run_config_from_dict(
            toy_cfg(out_dir=str(b))))
        for name in ("R.csv", "metrics.json", "curves.csv",
                     "config.resolved.json"):
            assert (a / name).exists(), name
        assert (a / "R.csv").read_bytes() == (b / "R.csv").read_bytes()
        assert res_a.ap == res_b.ap and res_a.af == res_b.af

    def test_metrics_json_contents(self, tmp_path):
        res = run_sequence(run_config_from_dict(
            toy_cfg(out_dir=str(tmp_path / "r"))))
        m = json.loads((tmp_path / "r" / "metrics.json").read_text())
        assert m["ap"] == res.ap
        assert m["af"] == res.af
        assert m["af_defined"] is True
        assert len(m["per_task"]) == 2
        assert m["per_task"][0]["forgetting"] == pytest.approx(
            m["per_task"][0]["just_trained"] - m["per_task"][0]["final"])
        assert m["wall_clock_s"] > 0

    def test_resolved_config_echoes_defaults(self, tmp_path):
        run_sequence(run_config_from_dict(toy_cfg(out_dir=str(tmp_path))))
        resolved = json.loads(
            (tmp_path / "config.resolved.json").read_text())
        assert resolved["strategy"]["lr"] == 0.005
        assert resolved["strategy"]["epochs"] == 5
        assert resolved["metric"] == "accuracy"

    def test_curves_csv_shape(self, tmp_path):
        run_sequence(run_config_from_dict(toy_cfg(out_dir=str(tmp_path))))
        lines = (tmp_path / "curves.csv").read_text().strip().split("\n")
        assert lines[0] == "task,after_task,value"
        assert len(lines) == 1 + 3  # T(T+1)/2 entries for T=2

    def test_auc_on_node_tasks_rejected(self):
        with pytest.raises(ConfigError):
            run_sequence(run_config_from_dict(toy_cfg(metric="auc")))

    def test_failure_writes_partial_artifacts(self, tmp_path, monkeypatch):
        def refuse_task_1(strategy, k):
            if k == 1:
                raise ConfigError("task 1 refused")

        monkeypatch.setattr(TwpStrategy, "before_task", refuse_task_1)
        raw = toy_cfg(out_dir=str(tmp_path / "fail"))
        raw["dataset"] = {"kind": "graphs", "num_tasks": 2,
                          "graphs_per_task": 8, "nodes_min": 5,
                          "nodes_max": 8, "feature_dim": 4,
                          "train_fraction": 0.6}
        raw["strategy"] = {"kind": "TWP", "beta": 0.01, "epochs": 3}
        with pytest.raises(ConfigError):
            run_sequence(run_config_from_dict(raw))
        m = json.loads((tmp_path / "fail" / "metrics.json").read_text())
        assert m["failed"] is True
        assert "ConfigError" in m["error"]
        assert m["completed_rows"] == 1
        assert (tmp_path / "fail" / "R.csv").exists()


class TestResolveSweep:
    def test_default_single_variant(self):
        base, variants = resolve_sweep({"base": toy_cfg()})
        assert variants == [("base", {})]
        assert base["seed"] == 1

    def test_named_variants(self):
        raw = {"base": toy_cfg(), "variants": [
            {"name": "small", "overrides": {"model": {"hidden_dim": 4}}},
            {"name": "big", "overrides": {"model": {"hidden_dim": 16}}}]}
        _, variants = resolve_sweep(raw)
        assert [n for n, _ in variants] == ["small", "big"]

    def test_duplicate_names_rejected(self):
        raw = {"base": {}, "variants": [{"name": "x"}, {"name": "x"}]}
        with pytest.raises(ConfigError):
            resolve_sweep(raw)

    def test_missing_name_rejected(self):
        with pytest.raises(ConfigError):
            resolve_sweep({"base": {}, "variants": [{"overrides": {}}]})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            resolve_sweep({"base": {}, "grid": []})

    def test_ablation_preset(self):
        raw = {"base": {"strategy": {"kind": "TWP"}}, "ablation": True}
        _, variants = resolve_sweep(raw)
        assert [n for n, _ in variants] == ["W/_Loss", "W/_TWP", "Full"]
        by_name = dict(variants)
        assert by_name["W/_Loss"]["strategy"]["lambda_t"] == 0.0
        assert by_name["W/_Loss"]["strategy"]["beta"] == 0.0
        assert by_name["W/_TWP"]["strategy"]["beta"] == 0.0
        assert by_name["Full"] == {}

    def test_ablation_requires_twp_base(self):
        with pytest.raises(ConfigError):
            resolve_sweep({"base": {"strategy": {"kind": "EWC"}},
                           "ablation": True})

    def test_ablation_conflicts_with_variants(self):
        with pytest.raises(ConfigError):
            resolve_sweep({"base": {}, "ablation": True,
                           "variants": [{"name": "x"}]})


class TestSweep:
    def test_repeated_seed_zero_std(self, tmp_path):
        cells = sweep_and_report(toy_cfg(), [("base", {})], [5, 5],
                                 out_dir=str(tmp_path))
        assert len(cells) == 2
        agg = (tmp_path / "aggregate.csv").read_text().strip().split("\n")
        assert agg[0] == "name,seeds,ap_mean,ap_std,af_mean,af_std,failures"
        row = agg[1].split(",")
        assert row[0] == "base"
        assert row[1] == "2"
        assert float(row[3]) == 0.0  # identical seeds, zero spread
        assert float(row[5]) == 0.0
        assert row[6] == "0"

    def test_per_cell_directories_and_reports(self, tmp_path):
        sweep_and_report(
            toy_cfg(),
            [("a b", {}), ("c", {"strategy": {"epochs": 3}})],
            [0], out_dir=str(tmp_path))
        assert (tmp_path / "a_b" / "seed_0" / "R.csv").exists()
        assert (tmp_path / "c" / "seed_0" / "R.csv").exists()
        ret = (tmp_path / "retention.csv").read_text().strip().split("\n")
        assert ret[0] == "name,after_task,mean,std"
        assert len(ret) == 1 + 2 * 2  # 2 variants x 2 tasks
        run = (tmp_path / "running_avg.csv").read_text().strip().split("\n")
        assert len(run) == 1 + 2 * 2

    def test_override_merge_is_deep(self, tmp_path):
        cells = sweep_and_report(
            toy_cfg(), [("v", {"strategy": {"epochs": 2}})], [0],
            out_dir=str(tmp_path))
        resolved = json.loads(
            (tmp_path / "v" / "seed_0" / "config.resolved.json")
            .read_text())
        assert resolved["strategy"]["epochs"] == 2
        assert resolved["strategy"]["kind"] == "FINETUNE"  # base kept
        assert cells[0].result is not None

    def test_cell_failure_is_recorded_not_fatal(self, tmp_path):
        cells = sweep_and_report(
            toy_cfg(),
            [("ok", {}), ("broken", {"metric": "auc"})],
            [0], out_dir=str(tmp_path))
        by_name = {c.name: c for c in cells}
        assert by_name["ok"].result is not None
        assert by_name["broken"].result is None
        assert "ConfigError" in by_name["broken"].error
        agg = (tmp_path / "aggregate.csv").read_text()
        assert "broken,0,,,,,1" in agg

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            sweep_and_report(toy_cfg(), [("base", {})], [])


def test_ablation_preset_is_frozen():
    # the preset itself is part of the reporting contract
    assert [n for n, _ in ABLATION_PRESET] == ["W/_Loss", "W/_TWP", "Full"]
