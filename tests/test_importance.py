"""Importance measures, the anchored quadratic penalty, and the
differentiable capacity term."""

import numpy as np
import pytest

from gnncl.engine import Tape, Tensor, backward
from gnncl.graphs import (TaskSequence, TaskSpec, TaskType,
                          generate_graph_classification_tasks,
                          graph_from_edges)
from gnncl.nn import GnnModel, ModelConfig, ModelError
from gnncl.continual import (
    ImportanceRecord,
    TaskView,
    capacity_regularizer,
    compute_importance,
    load_records,
    save_records,
    snapshot_topo,
    twp_penalty,
)
from conftest import central_diff, max_rel_err
from importance_oracles import (
    anchor_record,
    compute_loss_importance,
    compute_topo_importance,
    topo_scalar,
    twp_penalty_per_parameter,
)


def node_setup(backbone="gat", seed=0, n=8, d=3, **model_fields):
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < 0.5, k=1)
    src, dst = np.nonzero(mask)
    feats = rng.normal(size=(n, d))
    labels = rng.integers(0, 2, size=n)
    g = graph_from_edges(n, np.stack([src, dst], 1), feats, labels)
    task = TaskSpec(task_index=0, classes=(0, 1),
                    train=np.arange(n // 2), test=np.arange(n // 2, n))
    view = TaskView(TaskSequence(TaskType.NODE, [task], graph=g))
    heads = (2, 1) if backbone == "gat" else (1, 1)
    model = GnnModel(ModelConfig(backbone=backbone, hidden_dim=4,
                                 heads=heads, **model_fields), d, 2,
                     np.random.default_rng(seed + 50))
    return model, view


def capacity(model, view, lambda_l, lambda_t, beta):
    """The capacity term on one fresh forward of task 0."""
    loss, snap = view.train_loss(model, 0, want_attention=True)
    return capacity_regularizer(
        model, loss, snapshot_topo(snap, view.train_item(0)[2]),
        lambda_l, lambda_t, beta)


def test_loss_importance_matches_finite_differences():
    model, view = node_setup("gcn")
    imp = compute_loss_importance(model, view, 0)

    def loss_value():
        with Tape():
            return view.train_loss(model, 0)[0].item()

    for name, p in model.named_parameters():
        numeric = np.abs(central_diff(loss_value, [p.data])[0])
        assert max_rel_err(imp[name], numeric) < 1e-5


def test_topo_importance_matches_finite_differences():
    model, view = node_setup("gat")
    imp = compute_topo_importance(model, view, 0)

    def t_value():
        with Tape():
            return topo_scalar(model, view, 0).item()

    name0 = "layers.0.W"
    p0 = dict(model.named_parameters())[name0]
    numeric = np.abs(central_diff(t_value, [p0.data[0]])[0])
    assert max_rel_err(imp[name0][0], numeric) < 1e-5


@pytest.mark.parametrize("backbone", ["gcn", "gat", "gin"])
def test_topo_importance_zero_downstream(backbone):
    model, view = node_setup(backbone)
    imp = compute_topo_importance(model, view, 0)
    mid = model.middle_layer_index
    upstream_total = 0.0
    for name, arr in imp.items():
        if name.startswith("head.") or any(
                name.startswith(f"layers.{l}.") for l in
                range(mid + 1, model.config.num_layers)):
            assert np.all(arr == 0.0), name
        else:
            upstream_total += float(np.abs(arr).sum())
    assert upstream_total > 0


@pytest.mark.parametrize("backbone", ["gcn", "gat", "gin"])
def test_shared_forward_importance_matches_separate_passes(backbone):
    # one forward with attention, two sweeps over its tape
    model, view = node_setup(backbone, seed=6)
    i_loss, i_ts = compute_importance(model, view, 0)
    want_loss = compute_loss_importance(model, view, 0)
    want_ts = compute_topo_importance(model, view, 0)
    for name, _ in model.named_parameters():
        assert np.array_equal(i_loss[name], want_loss[name]), name
        assert np.array_equal(i_ts[name], want_ts[name]), name


@pytest.mark.parametrize("backbone", ["gcn", "gat", "gin"])
def test_shared_forward_importance_matches_separate_passes_on_graph_tasks(
        backbone):
    # pooled contexts: the sigmoid loss of each training graph, and the
    # topology scalar over every edge of the pooled graphs
    seq = generate_graph_classification_tasks(2, 8, (5, 8), seed=6)
    view = TaskView(seq)
    heads = (2, 1) if backbone == "gat" else (1, 1)
    model = GnnModel(ModelConfig(backbone=backbone, hidden_dim=4,
                                 heads=heads), seq.feature_dim, 2,
                     np.random.default_rng(56))
    for k in range(2):
        i_loss, i_ts = compute_importance(model, view, k)
        want_loss = compute_loss_importance(model, view, k)
        want_ts = compute_topo_importance(model, view, k)
        for name, _ in model.named_parameters():
            assert np.array_equal(i_loss[name], want_loss[name]), name
            assert np.array_equal(i_ts[name], want_ts[name]), name
        assert any(a.any() for a in i_loss.values())
        assert any(a.any() for a in i_ts.values())


def test_importance_non_negative():
    for backbone in ("gcn", "gat", "gin"):
        model, view = node_setup(backbone, seed=3)
        for imp in (compute_loss_importance(model, view, 0),
                    compute_topo_importance(model, view, 0)):
            for arr in imp.values():
                assert np.all(arr >= 0)


def test_combine_importance_weights():
    model, view = node_setup("gcn", seed=1)
    i_loss = compute_loss_importance(model, view, 0)
    i_ts = compute_topo_importance(model, view, 0)
    rec = anchor_record(model, i_loss, i_ts, 3.0, 5.0, task_index=2)
    assert rec.task_index == 2
    for name, _ in model.named_parameters():
        want = 3.0 * i_loss[name] + 5.0 * i_ts[name]
        assert np.array_equal(rec.importance[name], want)
    for name, p in model.named_parameters():
        assert np.array_equal(rec.snapshot[name], p.data)
        assert rec.snapshot[name] is not p.data


def test_penalty_zero_at_anchor():
    model, view = node_setup("gcn", seed=2)
    i_loss = compute_loss_importance(model, view, 0)
    i_ts = compute_topo_importance(model, view, 0)
    rec = anchor_record(model, i_loss, i_ts, 1.0, 1.0, 0)
    with Tape():
        assert twp_penalty(model, [rec]).item() == 0.0


def test_penalty_two_parameter_oracle():
    # importance (1, 2), drift (0.1, -0.2): 1*0.01 + 2*0.04 = 0.09
    model = GnnModel(ModelConfig(backbone="gcn", num_layers=1,
                                 hidden_dim=1), 1, 1,
                     np.random.default_rng(0))
    named = dict(model.named_parameters())
    snapshot = {name: p.data.copy() for name, p in named.items()}
    importance = {name: np.zeros_like(p.data) for name, p in named.items()}
    importance["layers.0.W"][0, 0] = 1.0
    importance["layers.0.b"][0] = 2.0
    rec = ImportanceRecord(0, snapshot, importance)
    named["layers.0.W"].data[0, 0] += 0.1
    named["layers.0.b"].data[0] -= 0.2
    with Tape():
        assert twp_penalty(model, [rec]).item() == pytest.approx(
            0.09, abs=1e-12)


def test_penalty_accumulates_over_records():
    model, view = node_setup("gcn", seed=4)
    recs = []
    for k in range(2):
        i_loss = compute_loss_importance(model, view, 0)
        i_ts = compute_topo_importance(model, view, 0)
        recs.append(anchor_record(model, i_loss, i_ts, 1.0, 1.0, k))
    for p in model.parameters():
        p.data += 0.05
    with Tape():
        both = twp_penalty(model, recs).item()
        first = twp_penalty(model, recs[:1]).item()
        second = twp_penalty(model, recs[1:]).item()
    assert both == pytest.approx(first + second, rel=1e-12)
    assert both > 0


def drifted_records(backbone, count, **model_fields):
    """A model and ``count`` records, the parameters moved after each."""
    model, view = node_setup(backbone, seed=4, **model_fields)
    recs = []
    for k in range(count):
        i_loss, i_ts = compute_importance(model, view, 0)
        recs.append(anchor_record(model, i_loss, i_ts, 3.0, 0.5, k))
        for p in model.parameters():
            p.data += 0.05 * (k + 1)
    return model, recs


@pytest.mark.parametrize("backbone", ["gcn", "gat", "gin"])
def test_flat_penalty_matches_per_parameter_oracle(backbone):
    # GIN with a learnable eps has a 0-d parameter
    fields = {"gin_eps_learnable": True} if backbone == "gin" else {}
    model, recs = drifted_records(backbone, 3, **fields)
    params = model.parameters()
    for some in (recs[:1], recs):
        with Tape():
            got = twp_penalty(model, some)
            grads = backward(got, params)
        with Tape():
            want = twp_penalty_per_parameter(model, some)
            want_grads = backward(want, params)
        assert got.item() == pytest.approx(want.item(), rel=1e-12, abs=0)
        for p in params:
            assert max_rel_err(grads[p].data, want_grads[p].data) < 1e-12
    # at the last record's snapshot its drift is exactly zero
    model.load_state(recs[-1].snapshot)
    with Tape():
        at_anchor = twp_penalty(model, recs[-1:])
        grads = backward(at_anchor, params)
    assert at_anchor.item() == 0.0
    assert all(not grads[p].data.any() for p in params)


def test_penalty_nodes_do_not_grow_with_records():
    model, recs = drifted_records("gat", 3)
    sizes = []
    for some in (recs[:1], recs):
        with Tape() as tape:
            twp_penalty(model, some)
            sizes.append(len(tape))
    assert sizes[0] == sizes[1]


def test_records_flatten_once():
    model, recs = drifted_records("gin", 2, gin_eps_learnable=True)
    names = tuple(name for name, _ in model.named_parameters())
    with Tape():
        first = twp_penalty(model, recs).item()
    kept = [rec.flat(names) for rec in recs]
    with Tape():
        again = twp_penalty(model, recs).item()
    assert again == first
    for rec, (imp, snap) in zip(recs, kept):
        got = rec.flat(names)
        assert got[0] is imp and got[1] is snap
        assert np.array_equal(
            imp, np.concatenate([rec.importance[n].ravel() for n in names]))
        assert np.array_equal(
            snap, np.concatenate([rec.snapshot[n].ravel() for n in names]))


def test_negative_importance_rejected():
    # negative importance; NaN importance, which no comparison catches;
    # an infinite snapshot
    for snap, imp in (([0.0, 0.0], [0.5, -0.1]), ([0.0, 0.0], [0.5, np.nan]),
                      ([np.inf, 0.0], [0.5, 0.1])):
        with pytest.raises(ModelError):
            ImportanceRecord(0, {"w": np.array(snap)}, {"w": np.array(imp)})


def test_mismatched_record_sets_rejected():
    with pytest.raises(ModelError):
        ImportanceRecord(0, {"w": np.zeros(2)}, {"v": np.zeros(2)})


def test_capacity_zero_when_beta_zero():
    model, view = node_setup("gcn", seed=5)
    with Tape():
        cap = capacity(model, view, 1.0, 1.0, 0.0)
        assert cap.item() == 0.0


def test_capacity_gradient_matches_finite_differences():
    model, view = node_setup("gcn", seed=6)
    params = model.parameters()
    with Tape():
        cap = capacity(model, view, 1.0, 0.5, 0.1)
        grads = backward(cap, params)

    def cap_value():
        with Tape():
            return capacity(model, view, 1.0, 0.5, 0.1).item()

    worst = 0.0
    for name, p in model.named_parameters():
        numeric = central_diff(cap_value, [p.data])[0]
        worst = max(worst, max_rel_err(grads[p].data, numeric))
    assert worst < 1e-3  # double-backward budget


def test_capacity_scales_linearly_in_beta():
    model, view = node_setup("gat", seed=7)
    with Tape():
        a = capacity(model, view, 2.0, 3.0, 0.1)
        b = capacity(model, view, 2.0, 3.0, 0.2)
    assert b.item() == pytest.approx(2 * a.item(), rel=1e-12)


def test_records_file_roundtrip(tmp_path):
    model, view = node_setup("gat", seed=8)
    recs = []
    for k in range(2):
        i_loss = compute_loss_importance(model, view, 0)
        i_ts = compute_topo_importance(model, view, 0)
        recs.append(anchor_record(model, i_loss, i_ts, 10.0, 2.0, k))
        for p in model.parameters():
            p.data *= 0.9
    save_records(recs, tmp_path / "recs")
    back = load_records(tmp_path / "recs")
    assert len(back) == 2
    for a, b in zip(recs, back):
        assert a.task_index == b.task_index
        assert set(a.snapshot) == set(b.snapshot)
        for name in a.snapshot:
            assert np.array_equal(a.snapshot[name], b.snapshot[name])
            assert np.array_equal(a.importance[name], b.importance[name])


def test_old_records_format_rejected(tmp_path):
    import json

    model, view = node_setup("gat", seed=9)
    i_loss, i_ts = compute_importance(model, view, 0)
    save_records([anchor_record(model, i_loss, i_ts, 1.0, 1.0, 0)],
                 tmp_path / "recs")
    path = tmp_path / "recs" / "records.json"
    manifest = json.loads(path.read_text())
    assert manifest["format"] == 2
    assert manifest["records"][0]["params"][:2] == ["layers.0.W",
                                                    "layers.0.a"]
    manifest["format"] = 1
    path.write_text(json.dumps(manifest))
    with pytest.raises(ModelError):
        load_records(tmp_path / "recs")


def test_truncated_or_unindexed_records_rejected(tmp_path):
    import json

    model, view = node_setup("gcn", seed=10)
    i_loss, i_ts = compute_importance(model, view, 0)
    save_records([anchor_record(model, i_loss, i_ts, 1.0, 1.0, 0)],
                 tmp_path / "recs")
    blob = tmp_path / "recs" / "records.bin"
    whole = blob.read_bytes()
    blob.write_bytes(whole[:-8])
    with pytest.raises(ModelError, match="0.imp.head.b"):
        load_records(tmp_path / "recs")
    blob.write_bytes(whole)
    path = tmp_path / "recs" / "records.json"
    manifest = json.loads(path.read_text())
    manifest["index"] = [e for e in manifest["index"]
                         if e["name"] != "0.imp.layers.0.W"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ModelError, match="0.imp.layers.0.W"):
        load_records(tmp_path / "recs")


@pytest.mark.parametrize("field,value", [
    ("shape", [-3, 4]), ("shape", [3.0, 4]), ("offset", 1.5),
    ("offset", None), ("shape", [2 ** 32, 2 ** 32])])
def test_malformed_records_index_rejected(tmp_path, field, value):
    import json

    model, view = node_setup("gcn", seed=11)
    i_loss, i_ts = compute_importance(model, view, 0)
    save_records([anchor_record(model, i_loss, i_ts, 1.0, 1.0, 0)],
                 tmp_path / "recs")
    path = tmp_path / "recs" / "records.json"
    manifest = json.loads(path.read_text())
    entry = manifest["index"][0]
    assert entry["name"] == "0.snap.layers.0.W"
    assert entry["shape"] == [3, 4]
    entry[field] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(ModelError, match="0.snap.layers.0.W"):
        load_records(tmp_path / "recs")



def _set_first_record(**fields):
    return lambda m: m["records"][0].update(fields)


def _drop_from_first_record(key):
    return lambda m: m["records"][0].pop(key)


@pytest.mark.parametrize("text,edit", [
    ("", None),  # no records.json at all
    ('{"format": 2, "records": [', None),
    ("[2]", None),
    (None, lambda m: m.pop("records")),
    (None, lambda m: m.update(records=7)),
    (None, _drop_from_first_record("task_index")),
    (None, _drop_from_first_record("params")),
    (None, _set_first_record(task_index="0")),
    (None, lambda m: m["index"].__setitem__(0, "x")),
], ids=["no manifest", "not json", "not an object", "no records",
        "records not a list", "no task_index", "no params",
        "string task_index", "index entry"])
def test_malformed_records_manifest_rejected(tmp_path, text, edit):
    # each case used to raise KeyError, TypeError, JSONDecodeError or
    # FileNotFoundError, or to load a string task index
    import json

    model, view = node_setup("gcn", seed=12)
    i_loss, i_ts = compute_importance(model, view, 0)
    save_records([anchor_record(model, i_loss, i_ts, 1.0, 1.0, 0)],
                 tmp_path / "recs")
    path = tmp_path / "recs" / "records.json"
    if text == "":
        path.unlink()
    elif text is not None:
        path.write_text(text)
    else:
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
    with pytest.raises(ModelError):
        load_records(tmp_path / "recs")
