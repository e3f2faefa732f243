"""Command-line entry points, exercised in-process via main()."""

import json

import pytest

from gnncl.harness.cli import main

TOY_RUN = {
    "dataset": {"kind": "sbm", "num_classes": 4, "classes_per_task": 2,
                "nodes_per_class": 8, "p_in": 0.3, "p_out": 0.05,
                "feature_dim": 5, "noise_sigma": 0.3,
                "train_fraction": 0.6},
    "model": {"backbone": "gcn", "hidden_dim": 8},
    "strategy": {"kind": "FINETUNE", "epochs": 4},
    "seed": 0,
}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_run_prints_summary_and_writes_artifacts(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", TOY_RUN)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) == {"ap", "af", "af_defined", "out_dir",
                            "wall_clock_s"}
    assert summary["out_dir"] == str(out)
    assert (out / "R.csv").exists()
    assert (out / "metrics.json").exists()


def test_run_seed_override_changes_result(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", TOY_RUN)
    assert main(["run", "--config", cfg]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["run", "--config", cfg, "--seed", "9"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["ap"] != second["ap"]  # different data and init


def test_run_without_out_dir_writes_nothing(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", TOY_RUN)
    assert main(["run", "--config", cfg]) == 0
    json.loads(capsys.readouterr().out)
    assert not (tmp_path / "R.csv").exists()


def test_error_reported_as_json_exit_1(tmp_path, capsys):
    bad = dict(TOY_RUN, metric="auc")  # AUC is for graph tasks
    cfg = write_json(tmp_path / "cfg.json", bad)
    assert main(["run", "--config", cfg]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ConfigError"
    assert "AUC" in err["error"]["message"]


def test_missing_config_file_is_clean_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "FileNotFoundError"


def test_gen_data_roundtrip(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", TOY_RUN)
    out = tmp_path / "data"
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["num_tasks"] == 2
    assert (out / "tasks.json").exists()

    # the generated directory loads back through a path dataset
    run_cfg = dict(TOY_RUN)
    run_cfg["dataset"] = {"kind": "path", "path": str(out),
                          "train_fraction": 0.6}
    cfg2 = write_json(tmp_path / "cfg2.json", run_cfg)
    assert main(["run", "--config", cfg2]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert 0.0 <= summary["ap"] <= 1.0


def test_gen_data_accepts_bare_dataset_config(tmp_path, capsys):
    cfg = write_json(tmp_path / "ds.json", TOY_RUN["dataset"])
    out = tmp_path / "data"
    assert main(["gen-data", "--config", cfg, "--out", str(out),
                 "--seed", "4"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["seed"] == 4


@pytest.mark.parametrize("seed, flag", [
    (True, None), (2.0, None), (-2, None), (0, "-2")])
def test_gen_data_checks_its_seed_as_run_does(tmp_path, capsys, seed, flag):
    # a bool, a float or a negative seed, in the config or on the command
    # line, is refused as a config error and writes nothing
    cfg = write_json(tmp_path / "cfg.json",
                     {"dataset": {"kind": "sbm"}, "seed": seed})
    out = tmp_path / "data"
    argv = ["gen-data", "--config", cfg, "--out", str(out)]
    if flag is not None:
        argv += ["--seed", flag]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ConfigError"
    assert "seed" in err["error"]["message"]
    assert not out.exists()


def test_sweep_prints_aggregate(tmp_path, capsys):
    sweep = {"base": TOY_RUN,
             "variants": [{"name": "v1", "overrides": {}}]}
    cfg = write_json(tmp_path / "sweep.json", sweep)
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", cfg, "--seeds", "0,1",
                 "--out-dir", str(out)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "name,seeds,ap_mean,ap_std,af_mean,af_std,failures"
    assert lines[1].startswith("v1,2,")
    assert (out / "aggregate.csv").exists()
    assert (out / "v1" / "seed_0" / "R.csv").exists()


def test_sweep_cell_failures_go_to_stderr(tmp_path, capsys):
    sweep = {"base": TOY_RUN,
             "variants": [{"name": "bad",
                           "overrides": {"metric": "auc"}}]}
    cfg = write_json(tmp_path / "sweep.json", sweep)
    assert main(["sweep", "--config", cfg, "--seeds", "0"]) == 1
    captured = capsys.readouterr()
    assert "bad,0,,,,,1" in captured.out
    assert "failed bad seed 0" in captured.err


def test_sweep_refuses_a_repeated_seed(tmp_path, capsys):
    # "0,0" used to report one seed run twice as two seeds, std 0
    cfg = write_json(tmp_path / "sweep.json", {"base": TOY_RUN})
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", cfg, "--seeds", "0,0",
                 "--out-dir", str(out)]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ConfigError"
    assert "repeat" in err["error"]["message"]
    assert not out.exists()


def test_sweep_refuses_variants_sharing_a_directory(tmp_path, capsys):
    cfg = write_json(tmp_path / "sweep.json", {
        "base": TOY_RUN, "variants": [{"name": "a/b"}, {"name": "a_b"}]})
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", cfg, "--seeds", "0",
                 "--out-dir", str(out)]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ConfigError"
    assert "'a/b' and 'a_b'" in err["error"]["message"]
    assert not out.exists()


def test_sweep_bad_seeds_argument(tmp_path, capsys):
    cfg = write_json(tmp_path / "sweep.json", {"base": TOY_RUN})
    assert main(["sweep", "--config", cfg, "--seeds", "a,b"]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ValueError"


def test_report_collects_runs(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", TOY_RUN)
    for seed in (0, 1):
        assert main(["run", "--config", cfg, "--seed", str(seed),
                     "--out-dir", str(tmp_path / "runs" / f"s{seed}")]) == 0
        capsys.readouterr()
    assert main(["report", "--dir", str(tmp_path / "runs")]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "run,ap,af,status"
    assert len(lines) == 3
    assert all(line.endswith(",ok") for line in lines[1:])


def test_report_marks_failed_runs(tmp_path, capsys):
    run_dir = tmp_path / "runs" / "broken"
    run_dir.mkdir(parents=True)
    (run_dir / "metrics.json").write_text(json.dumps(
        {"failed": True, "error": "x", "completed_rows": 0,
         "wall_clock_s": 0.1}))
    assert main(["report", "--dir", str(tmp_path / "runs")]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1] == "broken,,,failed"


@pytest.mark.parametrize("dataset, error", [
    ({"kind": "path", "path": "no-such-dataset"}, "DatasetError"),
    ({"kind": "sbm", "noise_sigma": -0.5}, "GraphError"),
], ids=["missing-path", "bad-generator-range"])
def test_report_lists_runs_that_fail_before_training(tmp_path, capsys,
                                                     dataset, error):
    # such a run used to leave only config.resolved.json, so report
    # printed its header alone
    cfg = write_json(tmp_path / "cfg.json", dict(TOY_RUN, dataset=dataset))
    run = tmp_path / "runs" / "early"
    assert main(["run", "--config", cfg, "--out-dir", str(run)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == error
    m = json.loads((run / "metrics.json").read_text())
    assert m["failed"] is True and m["error"].startswith(error)
    assert m["completed_rows"] == 0
    assert not (run / "R.csv").exists()  # no task exists yet
    assert main(["report", "--dir", str(tmp_path / "runs")]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == ["run,ap,af,status", "early,,,failed"]


def test_report_missing_dir(tmp_path, capsys):
    assert main(["report", "--dir", str(tmp_path / "nope")]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "FileNotFoundError"
