"""End-to-end acceptance gate.

Nine numbered criteria, each printing one PASS/FAIL line with its
tolerance. The heavy criteria (4, 5, 6) share one cached run matrix:
strategy x backbone x 5 seeds on the default synthetic sequence.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from gnncl.continual.gem import gem_project
from gnncl.continual.importance import (
    capacity_regularizer,
    snapshot_topo,
    twp_penalty,
)
from gnncl.continual.strategies import TaskView
from gnncl.engine import Tape, Tensor, add, backward
from gnncl.graphs import load_dataset, save_dataset
from gnncl.harness.metrics import RMatrix, auc_score, compute_ap_af
from gnncl.harness.runner import (
    build_dataset,
    build_model,
    run_config_from_dict,
    run_sequence,
)
from gnncl.nn.model import ModelConfig

from conftest import central_diff
from importance_oracles import (
    anchor_record,
    compute_loss_importance,
    compute_topo_importance,
    topo_scalar,
)

SEEDS = (0, 1, 2, 3, 4)
BACKBONES = ("gcn", "gat", "gin")


def _emit(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def check(capsys, num, ok, detail):
    _emit(capsys, f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


# shared run matrix ----------------------------------------------------

_CACHE = {}


def _strategy_key(overrides):
    return tuple(sorted(overrides.items()))


def run_cell(backbone, overrides, seed):
    """One (backbone, strategy, seed) training run on the defaults."""
    key = (backbone, _strategy_key(overrides), seed)
    if key in _CACHE:
        return _CACHE[key]
    result = run_sequence(run_config_from_dict(
        {"dataset": {"kind": "sbm"}, "model": {"backbone": backbone},
         "strategy": overrides, "seed": seed}))
    r = result.r.values
    _CACHE[key] = (result.ap, result.af, float(r[0, 0] - r[-1, 0]))
    return _CACHE[key]


def medians(backbone, overrides):
    cells = [run_cell(backbone, overrides, s) for s in SEEDS]
    return (float(np.median([c[0] for c in cells])),
            float(np.median([c[1] for c in cells])),
            float(np.median([c[2] for c in cells])))


# toys for the gradient criteria ---------------------------------------

TOY_DS = {"kind": "sbm", "num_classes": 4, "classes_per_task": 2,
          "nodes_per_class": 5, "p_in": 0.5, "p_out": 0.2,
          "feature_dim": 4, "noise_sigma": 0.4, "train_fraction": 0.6}


def _toy_model(backbone, seed=0):
    seq = build_dataset(TOY_DS, seed)  # 20 nodes total
    view = TaskView(seq)
    mc = ModelConfig(backbone=backbone, hidden_dim=8, num_layers=2,
                     heads=(2, 1))
    model = build_model(seq, mc, seed)
    return seq, view, model


def _param_arrays(model):
    return [p.data for _, p in model.named_parameters()]


def _grad_vs_fd(model, live_scalar_fn, value_fn, eps=1e-5):
    """Max relative error between analytic gradients and central FD."""
    params = model.parameters()
    with Tape():
        grads = backward(live_scalar_fn(), params)
    analytic = np.concatenate(
        [grads[p].data.ravel() for p in params])
    numeric = np.concatenate(
        [g.ravel() for g in central_diff(value_fn, _param_arrays(model),
                                         eps=eps)])
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_criterion_1_gradient_correctness(capsys):
    t0 = time.time()
    worst_first, worst_second = 0.0, 0.0
    for backbone in BACKBONES:
        seq, view, model = _toy_model(backbone)
        rows = view.train_item(0)[2]

        err = _grad_vs_fd(
            model,
            lambda: view.train_loss(model, 0)[0],
            lambda: view.train_loss(model, 0)[0].item())
        worst_first = max(worst_first, err)

        err = _grad_vs_fd(
            model,
            lambda: topo_scalar(model, view, 0),
            lambda: topo_scalar(model, view, 0).item())
        worst_first = max(worst_first, err)

        # full objective: new-task loss + anchored quadratic penalty
        # + capacity term, the double-backward path
        i_loss = compute_loss_importance(model, view, 0)
        i_ts = compute_topo_importance(model, view, 0)
        rec = anchor_record(model, i_loss, i_ts, 10.0, 5.0, 0)
        for _, p in model.named_parameters():  # move off the anchor
            p.data += 0.01
        lam_l, lam_t, beta = 10.0, 5.0, 0.01

        def full_live():
            loss, snap = view.train_loss(model, 0, want_attention=True)
            total = add(loss, twp_penalty(model, [rec]))
            return add(total, capacity_regularizer(
                model, loss, snapshot_topo(snap, rows), lam_l, lam_t,
                beta))

        def full_value():
            with Tape():
                val = full_live().item()
            return val

        err = _grad_vs_fd(model, full_live, full_value)
        worst_second = max(worst_second, err)
    dt = time.time() - t0
    ok = worst_first < 1e-4 and worst_second < 1e-3 and dt < 30.0
    check(capsys, 1,
          ok,
          f"first-order rel err {worst_first:.2e} < 1e-4, "
          f"double-backward rel err {worst_second:.2e} < 1e-3, "
          f"{dt:.1f}s < 30s")


def test_criterion_2_penalty_identities(capsys):
    t0 = time.time()
    seq, view, model = _toy_model("gcn")

    # zero at the anchor
    i_loss = compute_loss_importance(model, view, 0)
    i_ts = compute_topo_importance(model, view, 0)
    rec = anchor_record(model, i_loss, i_ts, 1.0, 1.0, 0)
    at_anchor = twp_penalty(model, [rec]).item()

    # two-parameter hand value: importances (1, 2), drifts (0.1, -0.2)
    # -> 1*0.01 + 2*0.04 = 0.09
    mini_seq = build_dataset(dict(TOY_DS, feature_dim=1), 1)
    mini_view = TaskView(mini_seq)
    mini = build_model(
        mini_seq, ModelConfig(backbone="gcn", hidden_dim=1, num_layers=1),
        1)
    named = dict(mini.named_parameters())
    w, b = named["layers.0.W"], named["layers.0.b"]
    assert w.size == 1 and b.size == 1
    rec2 = anchor_record(
        mini, {"layers.0.W": np.full(w.shape, 1.0),
               "layers.0.b": np.full(b.shape, 2.0),
               "head.W": np.zeros(named["head.W"].shape),
               "head.b": np.zeros(named["head.b"].shape)},
        {name: np.zeros(p.shape) for name, p in mini.named_parameters()},
        1.0, 1.0, 0)
    w.data += 0.1
    b.data -= 0.2
    hand = twp_penalty(mini, [rec2]).item()

    # downstream of the middle layer the topological gradient is
    # exactly zero for every backbone
    downstream_zero = True
    upstream_positive = True
    for backbone in BACKBONES:
        s2, v2, m2 = _toy_model(backbone, seed=2)
        imp = compute_topo_importance(m2, v2, 0)
        mid = m2.middle_layer_index
        for name, arr in imp.items():
            if name.startswith("head.") or any(
                    name.startswith(f"layers.{l}.")
                    for l in range(mid + 1, m2.config.num_layers)):
                downstream_zero &= bool(np.all(arr == 0.0))
        mid_mass = sum(
            imp[n].sum() for n in imp if n.startswith(f"layers.{mid}."))
        upstream_positive &= mid_mass > 0.0
    dt = time.time() - t0
    ok = (at_anchor == 0.0 and abs(hand - 0.09) < 1e-12
          and downstream_zero and upstream_positive and dt < 5.0)
    check(capsys, 2, ok,
          f"anchored penalty {at_anchor} == 0, two-param {hand:.6f} == "
          f"0.09 +/- 1e-12, downstream exactly zero: {downstream_zero}, "
          f"{dt:.1f}s < 5s")


def test_criterion_3_metric_oracle(capsys):
    r = RMatrix(3)
    for (i, j), v in {(0, 0): 0.9, (1, 0): 0.8, (1, 1): 0.85,
                      (2, 0): 0.7, (2, 1): 0.75, (2, 2): 0.95}.items():
        r.set(i, j, v)
    ap, af, _ = compute_ap_af(r)
    auc = auc_score(np.array([0.1, 0.4, 0.35, 0.8]),
                    np.array([0, 0, 1, 1]))
    # "exactly" up to the one float64 rounding step the mean incurs
    ok = (abs(ap - 0.8) < 1e-15 and abs(af - 0.15) < 1e-15
          and auc == 0.75)
    check(capsys, 3, ok,
          f"AP {ap:.17g} == 0.8 (tol 1e-15), AF {af:.17g} == 0.15 "
          f"(tol 1e-15), AUC {auc} == 0.75 exactly")


def test_criterion_4_forgetting_exists(capsys):
    t0 = time.time()
    _, af, drop0 = medians("gat", {"kind": "FINETUNE"})
    dt = time.time() - t0
    ok = af > 0.2 and drop0 > 0.2 and dt < 300.0
    check(capsys, 4, ok,
          f"FINETUNE median AF {af:.3f} > 0.2, first-task drop "
          f"{drop0:.3f} > 0.2, {dt:.0f}s < 300s")


def test_criterion_5_method_ordering(capsys):
    t0 = time.time()
    lines = []
    ok = True
    for backbone in BACKBONES:
        ap_f, af_f, _ = medians(backbone, {"kind": "FINETUNE"})
        ap_e, af_e, _ = medians(backbone, {"kind": "EWC"})
        ap_t, af_t, _ = medians(backbone, {"kind": "TWP"})
        cond = (af_t <= af_e <= af_f) and (ap_t >= ap_e >= ap_f)
        ok &= cond
        lines.append(
            f"{backbone}: AF {af_t:.3f}<={af_e:.3f}<={af_f:.3f}, "
            f"AP {ap_t:.3f}>={ap_e:.3f}>={ap_f:.3f}")
    _, af_joint, _ = medians("gat", {"kind": "JOINT"})
    ok &= af_joint <= 0.02
    dt = time.time() - t0
    ok &= dt < 1800.0
    check(capsys, 5, ok,
          "; ".join(lines) + f"; JOINT AF {af_joint:.4f} <= 0.02, "
          f"{dt:.0f}s < 1800s")


def test_criterion_6_ablation_ordering(capsys):
    tie = 0.005
    ap_l, af_l, _ = medians("gat", {"kind": "TWP", "lambda_t": 0.0,
                                    "beta": 0.0})
    ap_w, af_w, _ = medians("gat", {"kind": "TWP", "beta": 0.0})
    ap_full, af_full, _ = medians("gat", {"kind": "TWP"})
    ok = (ap_full >= ap_w - tie and ap_w >= ap_l - tie
          and af_full <= af_w + tie and af_w <= af_l + tie)
    check(capsys, 6, ok,
          f"AP Full {ap_full:.3f} >= W/_TWP {ap_w:.3f} >= W/_Loss "
          f"{ap_l:.3f}, AF Full {af_full:.3f} <= W/_TWP {af_w:.3f} <= "
          f"W/_Loss {af_l:.3f}, ties within {tie}")


def test_criterion_7_gem_projection(capsys):
    rng = np.random.default_rng(0)
    worst_closed = 0.0
    for _ in range(200):
        dim = int(rng.integers(5, 60))
        g = rng.normal(size=dim)
        m = rng.normal(size=dim)
        if g @ m >= 0:
            g = -g
        if g @ m >= 0:
            continue
        expected = g - (g @ m) / (m @ m) * m
        worst_closed = max(worst_closed, float(np.max(np.abs(
            gem_project(g, m[None, :]) - expected))))
    worst_inner = 0.0
    for _ in range(1000):
        dim = int(rng.integers(20, 200))
        k = int(rng.integers(1, 5))
        g = rng.normal(size=dim)
        mem = rng.normal(size=(k, dim))
        out = gem_project(g, mem)
        worst_inner = min(worst_inner, float(np.min(mem @ out)))
    ok = worst_closed < 1e-8 and worst_inner >= -1e-6
    check(capsys, 7, ok,
          f"closed-form diff {worst_closed:.2e} < 1e-8, min inner "
          f"product {worst_inner:.2e} >= -1e-6 over 1000 instances")


def test_criterion_8_determinism_roundtrip(capsys, tmp_path):
    cfg = {"dataset": dict(TOY_DS), "model": {"backbone": "gat",
                                              "hidden_dim": 8,
                                              "heads": (2, 1)},
           "strategy": {"kind": "FINETUNE", "epochs": 30}, "seed": 3}
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        run_sequence(run_config_from_dict(
            dict(cfg, out_dir=str(out))))
        runs.append((out / "R.csv").read_bytes())
    identical = runs[0] == runs[1]

    seq = build_dataset(dict(TOY_DS), 7)
    save_dataset(seq, str(tmp_path / "ds"))
    back = load_dataset(str(tmp_path / "ds"), train_fraction=0.6)
    same_structure = (
        np.array_equal(seq.graph.row_ptr, back.graph.row_ptr)
        and np.array_equal(seq.graph.col_idx, back.graph.col_idx)
        and np.array_equal(seq.graph.labels, back.graph.labels)
        and np.array_equal(seq.graph.features, back.graph.features)
        and len(seq.tasks) == len(back.tasks)
        and all(tuple(a.classes) == tuple(b.classes)
                for a, b in zip(seq.tasks, back.tasks)))
    ok = identical and same_structure
    check(capsys, 8, ok,
          f"R.csv byte-identical: {identical}, dataset round-trip "
          f"structurally exact: {same_structure}")


def test_criterion_9_long_protocol_optional(capsys, tmp_path):
    # user-shaped ingestion: 9 tasks x 5 classes, node dataset on disk
    seq = build_dataset(
        {"kind": "sbm", "num_classes": 45, "classes_per_task": 5,
         "nodes_per_class": 12, "p_in": 0.3, "p_out": 0.01,
         "feature_dim": 16, "noise_sigma": 0.5, "train_fraction": 0.6},
        0)
    data_dir = tmp_path / "corafull_shaped"
    save_dataset(seq, str(data_dir))
    out = tmp_path / "out"
    try:
        result = run_sequence(run_config_from_dict({
            "dataset": {"kind": "path", "path": str(data_dir),
                        "train_fraction": 0.6},
            "model": {"backbone": "gat"},
            "strategy": {"kind": "TWP", "epochs": 30},
            "seed": 0, "out_dir": str(out)}))
    except Exception as exc:  # non-gating: report, do not hide
        check(capsys, 9, False, f"protocol did not complete: {exc!r}")
        return
    m = json.loads((out / "metrics.json").read_text())
    shaped = (result.r.num_tasks == 9
              and result.r.complete_rows() == 9
              and len(m["per_task"]) == 9
              and (out / "R.csv").exists())
    check(capsys, 9, shaped,
          f"9-task protocol completed, AP {result.ap:.3f}, AF "
          f"{result.af:.3f}, table-shaped artifacts: {shaped} "
          "(non-gating criterion, asserted for completion only)")
