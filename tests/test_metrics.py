"""Evaluation metrics and the score matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnncl.continual import TaskView
from gnncl.harness.metrics import (
    MetricError,
    RMatrix,
    accuracy,
    auc_score,
    compute_ap_af,
    evaluate,
)
from gnncl.harness.runner import build_dataset, build_model, resolve_dataset
from gnncl.nn import ModelConfig


def test_accuracy_basic():
    pred = np.array([0, 1, 2, 1])
    true = np.array([0, 1, 1, 1])
    assert accuracy(pred, true) == 0.75


def test_micro_f1_equals_accuracy_single_label():
    # with exactly one label per sample, micro-F1 == accuracy, bit for bit,
    # on node tasks and on graph tasks
    for dataset in ({"kind": "sbm", "num_classes": 4, "classes_per_task": 2,
                     "nodes_per_class": 10},
                    {"kind": "graphs", "num_tasks": 2, "graphs_per_task": 8,
                     "nodes_min": 5, "nodes_max": 8}):
        seq = build_dataset(resolve_dataset(dataset), 3)
        view = TaskView(seq)
        model = build_model(seq, ModelConfig(backbone="gcn", hidden_dim=8),
                            3)
        tests = [(j,) + view.split(t.test) for j, t in enumerate(seq.tasks)]
        cells, _, _ = view.losses(model, tests, per_item=view.examples)
        for scores, labels in cells:
            assert (evaluate(scores.data, labels, "micro_f1")
                    == evaluate(scores.data, labels, "accuracy"))


@pytest.mark.parametrize("pred, true", [
    (np.array([[0], [1], [1]]), np.array([0, 1, 1])),  # (3, 1) predictions
    (np.array([0, 1, 1]), np.array([0, 1])),           # length mismatch
    (np.array([0, 1]), np.array([[0, 1]])),
])
def test_accuracy_refuses_mismatched_shapes(pred, true):
    # a (3, 1) prediction used to broadcast to 3 x 3 and score 0.556
    with pytest.raises(MetricError):
        accuracy(pred, true)


@pytest.mark.parametrize("scores, labels", [
    (np.array([0.1, 0.9, 0.5, 0.7]), np.array([0, 1, 2, 2])),
    (np.array([0.1, 0.9, 0.5, 0.7]), np.array([0, 1, -1, 1])),
    (np.array([0.1, 0.9, 0.5]), np.array([0, 1, 1, 0])),
    (np.array([[0.1, 0.9], [0.5, 0.7]]), np.array([0, 1])),
])
def test_auc_refuses_bad_inputs(scores, labels):
    # labels [0, 1, 2, 2] used to give an AUC of 3.0
    with pytest.raises(MetricError):
        auc_score(scores, labels)


def test_evaluate_reads_class_logits_or_graph_logits():
    logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0]])
    assert evaluate(logits, np.array([0, 1, 1]), "accuracy") == 2 / 3
    with pytest.raises(MetricError, match="graph tasks only"):
        evaluate(logits, np.array([0, 1, 1]), "auc")
    scores, labels = np.array([-1.0, 2.0, 0.5]), np.array([0.0, 1.0, 0.0])
    assert evaluate(scores, labels, "accuracy") == 2 / 3
    assert evaluate(scores, labels, "auc") == 1.0
    with pytest.raises(MetricError):
        evaluate(scores, labels[:2], "accuracy")
    with pytest.raises(MetricError, match="unknown metric"):
        evaluate(scores, labels, "f1")


def test_auc_hand_value():
    # scores 0.1, 0.4, 0.35, 0.8 with labels 0,0,1,1:
    # pairs (0.35 vs 0.1 win), (0.35 vs 0.4 loss), (0.8 vs both wins)
    # -> 3/4
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    labels = np.array([0, 0, 1, 1])
    assert auc_score(scores, labels) == pytest.approx(0.75)


def test_auc_ties_give_half_credit():
    scores = np.array([0.5, 0.5])
    labels = np.array([0, 1])
    assert auc_score(scores, labels) == pytest.approx(0.5)


def test_auc_perfect_and_inverted():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([0, 0, 1, 1])
    assert auc_score(scores, labels) == pytest.approx(1.0)
    assert auc_score(scores, 1 - labels) == pytest.approx(0.0)


def test_auc_requires_both_classes():
    with pytest.raises(MetricError):
        auc_score(np.array([0.1, 0.2]), np.array([1, 1]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_auc_matches_pair_counting(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    labels = np.zeros(n, dtype=int)
    labels[: max(1, n // 3)] = 1
    rng.shuffle(labels)
    # quantize so ties actually occur
    scores = np.round(rng.random(n), 1)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    brute = (wins + 0.5 * ties) / (len(pos) * len(neg))
    assert auc_score(scores, labels) == pytest.approx(brute, abs=1e-12)


class TestRMatrix:
    def test_lower_triangular_only(self):
        r = RMatrix(3)
        r.set(1, 0, 0.5)
        with pytest.raises(MetricError):
            r.set(0, 1, 0.5)

    def test_write_once(self):
        r = RMatrix(3)
        r.set(0, 0, 0.5)
        with pytest.raises(MetricError):
            r.set(0, 0, 0.6)

    def test_range_guard(self):
        r = RMatrix(2)
        with pytest.raises(MetricError):
            r.set(0, 0, 1.5)
        with pytest.raises(MetricError):
            r.set(0, 0, -0.1)

    def test_complete_rows(self):
        r = RMatrix(3)
        r.set(0, 0, 0.9)
        r.set(1, 0, 0.8)
        assert r.complete_rows() == 1
        r.set(1, 1, 0.7)
        assert r.complete_rows() == 2

    def test_csv_roundtrip_exact(self, tmp_path):
        r = RMatrix(3)
        vals = [(0, 0, 1 / 3), (1, 0, 0.1234567890123456),
                (1, 1, 0.7), (2, 0, 1e-17), (2, 1, 0.5), (2, 2, 1.0)]
        for i, j, v in vals:
            r.set(i, j, v)
        p = tmp_path / "R.csv"
        p.write_text(r.to_csv())
        back = RMatrix.from_csv(p.read_text())
        for i, j, v in vals:
            assert back.values[i, j] == v  # %.17g is lossless for float64
        # upper triangle stays empty
        assert np.isnan(back.values[0, 1])

    def test_csv_byte_stable(self):
        r = RMatrix(2)
        r.set(0, 0, 0.125)
        r.set(1, 0, 0.5)
        r.set(1, 1, 0.75)
        assert r.to_csv() == r.to_csv()


class TestApAf:
    def test_given_three_task_matrix(self):
        # the pinned worked example
        r = RMatrix(3)
        r.set(0, 0, 0.9)
        r.set(1, 0, 0.8)
        r.set(1, 1, 0.85)
        r.set(2, 0, 0.7)
        r.set(2, 1, 0.75)
        r.set(2, 2, 0.95)
        ap, af, defined = compute_ap_af(r)
        assert defined
        assert ap == pytest.approx(0.8, abs=1e-12)
        assert af == pytest.approx(0.15, abs=1e-12)

    def test_single_task_af_undefined(self):
        r = RMatrix(1)
        r.set(0, 0, 0.6)
        ap, af, defined = compute_ap_af(r)
        assert ap == 0.6
        assert af == 0.0
        assert not defined

    def test_negative_forgetting_allowed(self):
        # backward transfer gives AF < 0
        r = RMatrix(2)
        r.set(0, 0, 0.5)
        r.set(1, 0, 0.7)
        r.set(1, 1, 0.6)
        _, af, defined = compute_ap_af(r)
        assert defined
        assert af == pytest.approx(-0.2)

    def test_incomplete_matrix_rejected(self):
        r = RMatrix(2)
        r.set(0, 0, 0.5)
        with pytest.raises(MetricError):
            compute_ap_af(r)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_af_matches_definition(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(2, 6))
        vals = rng.random((t, t))
        r = RMatrix(t)
        for i in range(t):
            for j in range(i + 1):
                r.set(i, j, float(vals[i, j]))
        ap, af, defined = compute_ap_af(r)
        assert defined
        assert ap == pytest.approx(np.mean([vals[t - 1, j] for j in range(t)]))
        assert af == pytest.approx(
            np.mean([vals[i, i] - vals[t - 1, i] for i in range(t - 1)]))
