"""Experiment runner: configs, artifacts, determinism, sweeps."""

import json
from pathlib import Path

import numpy as np
import pytest

from gnncl.continual.strategies import (
    STRATEGY_KINDS,
    ConfigError,
    StrategyConfig,
    TaskView,
    TwpStrategy,
    make_strategy,
)
from gnncl.engine import EmptyBatchError
from gnncl.graphs import GraphError
from gnncl.harness.metrics import evaluate
from gnncl.harness.runner import (
    SBM_DEFAULTS,
    _deep_merge,
    build_dataset,
    build_model,
    resolve_sweep,
    resolved_dict,
    run_config_from_dict,
    run_sequence,
    sweep_and_report,
)
from gnncl.nn import GnnModel, ModelConfig, ModelError

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

    @pytest.mark.parametrize("model, match", [
        ({"activation": "nope"}, "unknown activation 'nope'"),
        ({"backbone": "gat", "hidden_dim": 16, "heads": [3, 1]},
         "hidden_dim 16"),
    ], ids=["activation", "gat-heads"])
    def test_model_refused_at_config_time(self, model, match):
        # each used to fail only when run_sequence built the model
        with pytest.raises(ConfigError, match=match):
            run_config_from_dict(toy_cfg(model=model))

    @pytest.mark.parametrize("dataset", [
        {"kind": "sbm"}, {"kind": "path", "path": "no-such-dataset"}])
    def test_auc_on_node_datasets_refused_at_config_time(self, dataset):
        # used to fail only after the dataset was built
        with pytest.raises(ConfigError, match="AUC"):
            run_config_from_dict({"dataset": dataset, "metric": "auc"})

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

    def test_count_fields_must_be_ints(self):
        # counts reach range(), rng.choice and layer shapes unconverted
        for section, name in (("strategy", "epochs"),
                              ("strategy", "memory_per_task"),
                              ("strategy", "early_stop_patience"),
                              ("model", "num_layers"),
                              ("model", "hidden_dim")):
            for bad in (2.5, 2.0, True, "2", None):
                raw = toy_cfg()
                raw[section] = dict(raw.get(section, {}), **{name: bad})
                if name == "memory_per_task":
                    raw["strategy"]["kind"] = "GEM"
                with pytest.raises(ConfigError, match=name):
                    run_config_from_dict(raw)
        cfg = run_config_from_dict(toy_cfg(
            model={"backbone": "gcn", "num_layers": np.int64(2),
                   "hidden_dim": np.int32(8)},
            strategy={"kind": "GEM", "epochs": np.int64(2),
                      "memory_per_task": np.int64(3)}))
        # stored as ints, so the resolved config writes as JSON
        for value in (cfg.strategy.epochs, cfg.strategy.memory_per_task,
                      cfg.model.num_layers, cfg.model.hidden_dim):
            assert type(value) is int
        json.dumps(resolved_dict(cfg))
        gat = ModelConfig(backbone="gat", heads=[np.int64(2), 1])
        assert gat.heads == (2, 1) and type(gat.heads[0]) is int
        with pytest.raises(ConfigError):
            StrategyConfig(epochs=True)
        with pytest.raises(ModelError):
            ModelConfig(backbone="gcn", hidden_dim=0)

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

    def test_fields_of_another_strategy_rejected(self):
        for fields in ({"kind": "EWC", "beta": 0.5, "memory_per_task": 99},
                       {"kind": "FINETUNE", "lambda_reg": 1.0},
                       {"kind": "JOINT", "distill_temperature": 3.0},
                       {"kind": "TWP", "lambda_reg": 1.0},
                       {"kind": "GEM", "lambda_t": 0.0},
                       {"kind": "LWF", "memory_per_task": 5},
                       {"kind": "MAS", "lambda_l": 1.0}):
            raw = toy_cfg()
            raw["strategy"] = fields
            with pytest.raises(ConfigError, match="strategy only"):
                run_config_from_dict(raw)
        # a config built directly keeps every field
        assert StrategyConfig(kind="EWC", beta=0.5).beta == 0.5

    def test_resolved_config_round_trips_for_every_kind(self):
        own = {"FINETUNE": {}, "JOINT": {},
               "TWP": {"lambda_l": 5.0, "lambda_t": 2.0, "beta": 0.01},
               "EWC": {"lambda_reg": 7.0}, "MAS": {"lambda_reg": 3.0},
               "LWF": {"distill_temperature": 4.0},
               "GEM": {"memory_per_task": 3}}
        assert set(own) == set(STRATEGY_KINDS)
        shared = {"epochs", "lr", "early_stop_patience"}
        for kind, fields in own.items():
            raw = toy_cfg()
            raw["strategy"] = dict(fields, kind=kind, epochs=3)
            cfg = run_config_from_dict(raw)
            resolved = resolved_dict(cfg)
            assert set(resolved["strategy"]) == (
                {"kind"} | shared | set(fields))
            assert run_config_from_dict(resolved) == cfg

    def test_dataset_defaults_fill_in(self):
        cfg = run_config_from_dict({"dataset": {"kind": "sbm"}})
        for key, val in SBM_DEFAULTS.items():
            assert cfg.dataset[key] == val

    @pytest.mark.parametrize("section,kind,name,value", [
        ("strategy", "TWP", "beta", float("nan")),
        ("strategy", "TWP", "lambda_l", True),
        ("strategy", "TWP", "lambda_t", "1"),
        ("strategy", "EWC", "lambda_reg", float("inf")),
        ("strategy", "LWF", "distill_temperature", float("nan")),
        ("strategy", "FINETUNE", "lr", float("nan")),
        ("strategy", "FINETUNE", "lr", float("inf")),
        ("model", "gin", "gin_eps", float("nan")),
        ("model", "gin", "gin_eps_learnable", "no"),
        ("model", "gin", "gin_eps_learnable", 1),
        ("model", "gat", "attention_slope", "x"),
        ("model", "gat", "attention_slope", float("-inf")),
    ])
    def test_config_numbers_must_be_finite_reals(self, section, kind, name,
                                                 value):
        # NaN or infinite knobs used to train on, or to be silently off,
        # and a bool or string reached the arithmetic unconverted
        raw = toy_cfg()
        key = "kind" if section == "strategy" else "backbone"
        raw[section] = {key: kind, name: value}
        with pytest.raises(ConfigError, match=name):
            run_config_from_dict(raw)

    @pytest.mark.parametrize("kind,name,value", [
        ("sbm", "train_fraction", -0.2),
        ("sbm", "train_fraction", 1.5),
        ("sbm", "train_fraction", 0.0),
        ("graphs", "train_fraction", 1.0),
        ("sbm", "noise_sigma", float("nan")),
        ("sbm", "p_in", "0.3"),
        ("sbm", "nodes_per_class", 2.5),
        ("sbm", "feature_dim", 0),
        ("sbm", "num_classes", True),
        ("graphs", "graphs_per_task", -4),
        ("graphs", "nodes_min", None),
        ("path", "path", 7),
        ("path", "train_fraction", float("inf")),
    ])
    def test_dataset_section_checked_on_entry(self, kind, name, value):
        raw = {"kind": kind, name: value}
        if kind == "path" and name != "path":
            raw["path"] = "data"
        with pytest.raises(ConfigError, match=name):
            run_config_from_dict({"dataset": raw})

    def test_bad_strategy_field_rejected(self):
        raw = toy_cfg()
        raw["strategy"] = {"kind": "FINETUNE", "momentum": 0.9}
        with pytest.raises(ConfigError):
            run_config_from_dict(raw)


class TestRunSequence:
    @pytest.mark.parametrize("dataset", [
        # one example per class or graph task: all of it trains, or
        # (at train_fraction 0.4) all of it tests
        {"kind": "sbm", "nodes_per_class": 1},
        {"kind": "sbm", "nodes_per_class": 1, "train_fraction": 0.4},
        {"kind": "graphs", "graphs_per_task": 1},
        {"kind": "graphs", "graphs_per_task": 1, "train_fraction": 0.4},
    ])
    def test_empty_split_refused(self, dataset):
        # a graph task used to fail deep in merge_graphs ("cannot merge
        # zero graphs"), and a node task's empty train split in
        # cross_entropy
        cfg = run_config_from_dict({
            "dataset": dataset,
            "strategy": {"kind": "FINETUNE", "epochs": 1}})
        with pytest.raises(EmptyBatchError, match="split is empty"):
            run_sequence(cfg)

    def test_negative_noise_sigma_refused(self):
        # a negative sigma used to train on noiseless features
        raw = toy_cfg()
        raw["dataset"]["noise_sigma"] = -0.5
        cfg = run_config_from_dict(raw)
        with pytest.raises(GraphError, match="noise_sigma"):
            run_sequence(cfg)

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

    def test_a_row_of_r_costs_one_forward_on_node_tasks(self, monkeypatch):
        calls = []
        forward = GnnModel.forward_embeddings

        def counted(model, *args, **kwargs):
            calls.append(args)
            return forward(model, *args, **kwargs)

        monkeypatch.setattr(GnnModel, "forward_embeddings", counted)
        raw = toy_cfg()
        raw["dataset"]["num_classes"] = 6
        raw["strategy"]["epochs"] = 1
        run_sequence(run_config_from_dict(raw))
        # one training epoch per task, then one forward per row of R:
        # every test split of a node task lies on the one graph
        assert len(calls) == 3 + 3

    @pytest.mark.parametrize("dataset", [
        dict(TOY["dataset"], num_classes=6),
        {"kind": "graphs", "num_tasks": 3, "graphs_per_task": 12,
         "nodes_min": 5, "nodes_max": 8, "feature_dim": 4}],
        ids=["sbm", "graphs"])
    def test_r_equals_one_forward_per_cell(self, dataset):
        raw = toy_cfg()
        raw["dataset"] = dataset
        cfg = run_config_from_dict(raw)
        got = run_sequence(cfg).r
        seq = build_dataset(cfg.dataset, cfg.seed)
        model = build_model(seq, cfg.model, cfg.seed)
        view = TaskView(seq)
        strategy = make_strategy(cfg.strategy, model, view, cfg.seed)
        for k in range(len(seq.tasks)):
            strategy.train_task(k)
            for j in range(k + 1):
                item = (j,) + view.split(seq.tasks[j].test)
                ((scores, labels),), _, _ = view.losses(
                    model, [item], per_item=view.examples)
                assert got.get(k, j) == evaluate(scores.data, labels,
                                                 cfg.metric)

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
        raw = json.loads((SWEEPS / "ablation.json").read_text())
        _, variants = resolve_sweep(raw)
        assert [n for n, _ in variants] == ["W/_Loss", "W/_TWP", "Full"]
        by_name = dict(variants)
        assert by_name["W/_Loss"]["strategy"]["lambda_t"] == 0.0
        assert by_name["W/_Loss"]["strategy"]["beta"] == 0.0
        assert by_name["W/_TWP"]["strategy"]["beta"] == 0.0
        assert by_name["Full"] == {}

    def test_ablation_requires_twp_base(self):
        # the ablation is a TWP-only sweep file; the old switch is refused
        for _, raw in _merged_variants(SWEEPS / "ablation.json"):
            assert raw["strategy"]["kind"] == "TWP"
        with pytest.raises(ConfigError, match="unknown sweep field"):
            resolve_sweep({"base": {"strategy": {"kind": "EWC"}},
                           "ablation": True})

    def test_ablation_conflicts_with_variants(self):
        with pytest.raises(ConfigError, match="unknown sweep field"):
            resolve_sweep({"base": {}, "ablation": True,
                           "variants": [{"name": "x"}]})

    @pytest.mark.parametrize("raw, match", [
        ({"base": {}, "ablation": True}, "unknown sweep field"),
        ({"variants": []}, "non-empty list"),
        ({"variants": {"name": "a"}}, "non-empty list"),
        ({"variants": [{"name": "a", "overrides": [1]}]},
         "overrides must be an object"),
        ({"base": [1]}, "base must be an object"),
        ({"variants": [{"name": "a", "overide": {}}]}, "overide"),
    ], ids=["ablation-key", "empty-variants", "variants-not-list",
            "overrides-not-object", "base-not-object", "variant-typo"])
    def test_malformed_sweep_rejected(self, raw, match):
        with pytest.raises(ConfigError, match=match):
            resolve_sweep(raw)


class TestSweep:
    def test_repeated_seed_rejected(self, tmp_path):
        # a repeated seed used to run twice into one seed_5/ directory
        # and report its two identical runs as two seeds with zero spread
        with pytest.raises(ConfigError, match="repeat"):
            sweep_and_report(toy_cfg(), [("base", {})], [5, 5],
                             out_dir=str(tmp_path))
        assert not any(tmp_path.iterdir())

    def test_variants_sharing_a_directory_rejected(self, tmp_path):
        # "a/b" and "a_b" both wrote a_b/seed_0/, the second over the first
        with pytest.raises(ConfigError, match="'a/b' and 'a_b'"):
            sweep_and_report(toy_cfg(), [("a/b", {}), ("a_b", {})], [0],
                             out_dir=str(tmp_path))
        assert not any(tmp_path.iterdir())

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


SWEEPS = Path(__file__).resolve().parents[1] / "sweeps"
SWEEP_FILES = sorted(SWEEPS.glob("*.json"))


def _merged_variants(path):
    """Every variant of a sweep file as its merged run config dict."""
    base, variants = resolve_sweep(json.loads(path.read_text()))
    return [(name, _deep_merge(base, overrides))
            for name, overrides in variants]


@pytest.mark.parametrize("path", SWEEP_FILES, ids=lambda p: p.name)
def test_committed_sweep_file_resolves(path):
    for _, raw in _merged_variants(path):
        run_config_from_dict(raw)


def test_committed_sweeps_cover_the_paper_tables():
    assert {p.name for p in SWEEP_FILES} >= {
        "ablation.json", "method_table.json", "forgetting.json",
        "beta_by_size.json"}


def test_ablation_preset_is_frozen():
    # the variant names and strategies are part of the reporting contract
    merged = _merged_variants(SWEEPS / "ablation.json")
    assert [n for n, _ in merged] == ["W/_Loss", "W/_TWP", "Full"]
    assert [raw["strategy"] for _, raw in merged] == [
        {"kind": "TWP", "lambda_t": 0.0, "beta": 0.0},
        {"kind": "TWP", "beta": 0.0},
        {"kind": "TWP"}]
    for _, raw in merged:
        assert raw["model"] == {"backbone": "gat"}
        assert raw["dataset"] == {"kind": "sbm"}
