"""Continual-learning strategies: reductions, limits, and bookkeeping."""

import numpy as np
import pytest

from gnncl.continual import (
    capacity_regularizer,
    gem_project,
    snapshot_topo,
    twp_penalty,
)
from gnncl.continual.strategies import (
    ConfigError,
    StrategyConfig,
    TaskView,
    make_strategy,
)
from gnncl.engine import Adam, SegmentPlan, Tape, add, backward
from gnncl.harness.runner import (
    build_dataset,
    build_model,
    resolve_dataset,
    run_config_from_dict,
    run_sequence,
)
from gnncl.nn.model import GnnModel, ModelConfig
from conftest import central_diff, max_rel_err


TOY_DS = {"kind": "sbm", "num_classes": 4, "classes_per_task": 2,
          "nodes_per_class": 10, "p_in": 0.3, "p_out": 0.05,
          "feature_dim": 6, "noise_sigma": 0.3, "train_fraction": 0.6}
GRAPHS_DS = {"kind": "graphs", "num_tasks": 2, "graphs_per_task": 8,
             "nodes_min": 5, "nodes_max": 8, "feature_dim": 4,
             "train_fraction": 0.6}


def _toy(seed=3, backbone="gcn", hidden=8):
    seq = build_dataset(TOY_DS, seed)
    view = TaskView(seq)
    mc = ModelConfig(backbone=backbone, hidden_dim=hidden)
    return seq, view, mc


def _train(view, mc, seq, scfg, seed=3, tasks=2):
    model = build_model(seq, mc, seed)
    strat = make_strategy(scfg, model, view, seed)
    for k in range(tasks):
        strat.train_task(k)
    return model, strat


def _params(model):
    return {n: p.data.copy() for n, p in model.named_parameters()}


class TestReductions:
    """Degenerate hyperparameters collapse onto plain fine-tuning,
    bitwise, because the extra terms contribute exact zeros."""

    def test_twp_all_zero_coefficients_is_finetune(self):
        seq, view, mc = _toy()
        base, _ = _train(view, mc, seq,
                         StrategyConfig(kind="FINETUNE", epochs=25))
        twp, _ = _train(view, mc, seq,
                        StrategyConfig(kind="TWP", lambda_l=0.0,
                                       lambda_t=0.0, beta=0.0, epochs=25))
        for n, arr in _params(base).items():
            assert np.array_equal(arr, _params(twp)[n]), n

    def test_ewc_zero_lambda_is_finetune(self):
        seq, view, mc = _toy()
        base, _ = _train(view, mc, seq,
                         StrategyConfig(kind="FINETUNE", epochs=25))
        ewc, _ = _train(view, mc, seq,
                        StrategyConfig(kind="EWC", lambda_reg=0.0,
                                       epochs=25))
        for n, arr in _params(base).items():
            assert np.array_equal(arr, _params(ewc)[n]), n

    def test_mas_zero_lambda_is_finetune(self):
        seq, view, mc = _toy()
        base, _ = _train(view, mc, seq,
                         StrategyConfig(kind="FINETUNE", epochs=25))
        mas, _ = _train(view, mc, seq,
                        StrategyConfig(kind="MAS", lambda_reg=0.0,
                                       epochs=25))
        for n, arr in _params(base).items():
            assert np.array_equal(arr, _params(mas)[n]), n


class TestAnchorPath:
    @pytest.mark.parametrize("kind", ["EWC", "MAS", "TWP"])
    def test_objective_without_records_is_the_task_loss(self, kind):
        # before the first record no penalty is added, not even a zero
        seq, view, mc = _toy(backbone="gat")
        model = build_model(seq, mc, 3)
        beta = 1e-3 if kind == "TWP" else 0.0
        strat = make_strategy(StrategyConfig(kind=kind, beta=beta),
                              model, view, 3)
        assert strat.records == []
        with Tape() as tape:
            got = strat.objective(0)
            got_nodes = len(tape)
        with Tape() as tape:
            loss, snap = view.train_loss(model, 0,
                                         want_attention=kind == "TWP")
            want = loss
            if kind == "TWP":
                want = add(loss, capacity_regularizer(
                    model, loss, snapshot_topo(snap, view.train_item(0)[2]),
                    strat.cfg.lambda_l, strat.cfg.lambda_t, beta))
            want_nodes = len(tape)
        assert got.item() == want.item()
        assert got_nodes == want_nodes


class TestEwcFreezeLimit:
    def test_minimizer_displacement_vanishes(self):
        # for loss (w-a)^2 anchored by lambda*F*(w-w*)^2 the minimizer
        # sits at distance |a-w*|/(1+lambda*F) from the anchor; with
        # lambda=1e12 and order-one a, w*, F that is < 1e-6
        lam, f = 1e12, 1.0
        a, w_star = 1.0, 0.0
        w_hat = (a + lam * f * w_star) / (1.0 + lam * f)
        assert abs(w_hat - w_star) == abs(a - w_star) / (1.0 + lam * f)
        assert abs(w_hat - w_star) < 1e-6

    def test_huge_lambda_near_freezes_fisher_weighted_params(self):
        seq, view, mc = _toy()

        def drift(scfg):
            model = build_model(seq, mc, 3)
            strat = make_strategy(scfg, model, view, 3)
            strat.train_task(0)
            snap = _params(model)
            strat.train_task(1)
            return model, strat, snap

        model, strat, snap = drift(
            StrategyConfig(kind="EWC", lambda_reg=1e12, epochs=120))
        fisher = strat.records[0].importance
        fmax = max(a.max() for a in fisher.values())
        worst = 0.0
        for n, p in model.named_parameters():
            mask = fisher[n] > 1e-8 * fmax
            if mask.any():
                worst = max(worst,
                            float(np.abs(p.data - snap[n])[mask].max()))
        assert worst < 1e-4

        model, _, snap = drift(StrategyConfig(kind="FINETUNE", epochs=120))
        free = max(float(np.abs(p.data - snap[n]).max())
                   for n, p in model.named_parameters())
        assert free > 0.1  # same budget without the anchor drifts far


class TestLwf:
    """LwF distils task k toward the model as task k begins; its targets
    equal those of a copy of the model taken when task k - 1 ended."""

    @staticmethod
    def _copy(model):
        twin = GnnModel(model.config, model.in_dim, model.num_classes,
                        np.random.default_rng(0))
        twin.load_state(dict(model.state_arrays()))
        return twin

    @staticmethod
    def _targets(view, teacher, k, tau):
        _, ctx, rows = view.train_item(k)
        full, _ = view.forward(teacher, ctx)
        return [view.soft_targets(view.task_logits(teacher, full, t), t,
                                  ctx, rows, tau) for t in range(k)]

    def test_teacher_frozen_while_student_moves(self):
        seq, view, mc = _toy()
        model = build_model(seq, mc, 3)
        strat = make_strategy(StrategyConfig(kind="LWF", epochs=25),
                              model, view, 3)
        strat.train_task(0)
        teacher0 = self._copy(model)
        teacher_snap = _params(teacher0)
        strat.train_task(1)
        # task 1 was distilled toward the model as task 0 left it
        want = self._targets(view, teacher0, 1, 2.0)
        assert len(strat._soft_targets) == len(want) == 1
        for got, exp in zip(strat._soft_targets, want):
            assert np.array_equal(got, exp)
        moved = any(not np.array_equal(p.data, teacher_snap[n])
                    for n, p in model.named_parameters())
        assert moved

    def test_teacher_updates_after_each_task(self):
        seq = build_dataset(THREE_TASKS["sbm"], 3)
        view = TaskView(seq)
        model = build_model(seq, ModelConfig(backbone="gcn", hidden_dim=8),
                            3)
        strat = make_strategy(StrategyConfig(kind="LWF", epochs=10),
                              model, view, 3)
        strat.train_task(0)
        strat.train_task(1)
        teacher1 = self._copy(model)
        strat.before_task(2)
        want = self._targets(view, teacher1, 2, 2.0)
        assert len(strat._soft_targets) == len(want) == 2
        for got, exp in zip(strat._soft_targets, want):
            assert np.array_equal(got, exp)

    def test_model_built_once_per_run(self, monkeypatch):
        built = []
        init = GnnModel.__init__

        def counted(model, *args, **kwargs):
            built.append(model)
            init(model, *args, **kwargs)

        monkeypatch.setattr(GnnModel, "__init__", counted)
        result = run_sequence(run_config_from_dict({
            "dataset": {"kind": "sbm"}, "model": {"backbone": "gcn"},
            "strategy": {"kind": "LWF", "epochs": 2}}))
        assert result.r.num_tasks == 3
        assert len(built) == 1


class TestJoint:
    def test_separable_union_is_learned(self):
        # cleanly separated blocks: joint training fits every task seen
        ds = dict(TOY_DS, p_out=0.0, noise_sigma=0.1)
        seq = build_dataset(ds, 5)
        view = TaskView(seq)
        model, _ = _train(view, ModelConfig(backbone="gcn", hidden_dim=8),
                          seq, StrategyConfig(kind="JOINT", epochs=120),
                          seed=5)
        from gnncl.harness.metrics import evaluate
        tests = [(k,) + view.split(seq.tasks[k].test) for k in range(2)]
        cells, _, _ = view.losses(model, tests, per_item=view.examples)
        for scores, labels in cells:
            assert evaluate(scores.data, labels, "accuracy") >= 0.9


# three tasks each, so task 2 is scored with two earlier tasks
THREE_TASKS = {"sbm": dict(TOY_DS, num_classes=6),
               "graphs": dict(GRAPHS_DS, num_tasks=3)}


class TestOneForwardPerContext:
    """JOINT and GEM score every task they train on, or remember, from
    one forward of each context per epoch."""

    @staticmethod
    def _strategy(kind, dataset, epochs=3):
        seq = build_dataset(THREE_TASKS[dataset], 3)
        view = TaskView(seq)
        model = build_model(seq, ModelConfig(backbone="gin", hidden_dim=8),
                            3)
        strat = make_strategy(
            StrategyConfig(kind=kind, epochs=epochs, memory_per_task=4),
            model, view, 3)
        strat.train_task(0)
        strat.train_task(1)
        return seq, view, model, strat

    @pytest.mark.parametrize("kind", ["JOINT", "GEM"])
    def test_node_tasks_run_one_forward_per_epoch(self, kind, monkeypatch):
        _, _, _, strat = self._strategy(kind, "sbm", epochs=2)
        calls = []
        forward = GnnModel.forward_embeddings

        def counted(self, *args, **kwargs):
            calls.append(args)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(GnnModel, "forward_embeddings", counted)
        strat.train_task(2)
        assert len(calls) == 2

    @pytest.mark.parametrize("dataset", ["sbm", "graphs"])
    def test_joint_objective_equals_the_per_task_forward_sum(self, dataset):
        _, view, model, strat = self._strategy("JOINT", dataset)
        with Tape():
            got = strat.objective(2).item()
        with Tape():
            want = view.train_loss(model, 0)[0]
            for t in (1, 2):
                want = add(want, view.train_loss(model, t)[0])
        assert got == want.item()

    @pytest.mark.parametrize("dataset", ["sbm", "graphs"])
    def test_gem_step_matches_separate_tapes(self, dataset):
        seq, view, model, strat = self._strategy("GEM", dataset)
        params = model.parameters()

        def flat(grads):
            return np.concatenate([grads[p].data.ravel() for p in params])

        want_mem = []
        for task, ctx, rows in strat.memory:
            with Tape():
                full, _ = view.forward(model, ctx)
                want_mem.append(flat(backward(view.loss(
                    view.task_logits(model, full, task), task, ctx, rows),
                    params)))
        want_mem = np.stack(want_mem)
        with Tape():
            g = flat(backward(view.train_loss(model, 2)[0], params))
        assert np.any(want_mem @ g < 0)  # the step is projected
        with Tape():
            grads = backward(strat.objective(2), params)
            got_mem = np.stack([flat(backward(loss, params))
                                for loss in strat._memory_losses])
            got = flat(strat.transform_grads(2, grads))
        assert np.array_equal(got_mem, want_mem)
        assert np.array_equal(got, gem_project(g, want_mem))


class TestIndexPlansBuiltOnce:
    """Indices are validated where they enter: a split's rows, GEM's
    memories and the graph's own plans are built once and kept, so no
    epoch after a task's first builds a plan."""

    @pytest.mark.parametrize("kind", ["FINETUNE", "GEM"])
    def test_no_plan_built_after_a_tasks_first_epoch(self, kind,
                                                     monkeypatch):
        built = []
        init = SegmentPlan._init

        def counted(plan, *args, **kwargs):
            built.append(plan)
            init(plan, *args, **kwargs)

        # one (optimizer, plans built by each of its steps) per task
        tasks = []
        step = Adam.step

        def stepped(opt, grads):
            if not tasks or tasks[-1][0] is not opt:
                tasks.append((opt, []))
            tasks[-1][1].append(len(built))
            return step(opt, grads)

        monkeypatch.setattr(SegmentPlan, "_init", counted)
        monkeypatch.setattr(Adam, "step", stepped)
        run_sequence(run_config_from_dict({
            "dataset": {"kind": "sbm"}, "model": {"backbone": "gat"},
            "strategy": {"kind": kind, "epochs": 10}}))
        assert [len(counts) for _, counts in tasks] == [10, 10, 10]
        assert tasks[0][1][0] > 0
        for _, counts in tasks:
            assert np.diff(counts).tolist() == [0] * 9

        seq = build_dataset(resolve_dataset({"kind": "sbm"}), 0)
        view = TaskView(seq)
        train = seq.tasks[0].train
        _, rows = view.split(train)
        assert isinstance(rows, SegmentPlan)
        assert np.array_equal(rows.ids, train)
        # split lays out afresh; the train split's owner keeps its layout
        assert view.split(train)[1] is not rows
        assert view.train_item(0) is view.train_item(0)


class TestGemBookkeeping:
    def test_memory_sampled_deterministically(self):
        seq, view, mc = _toy()
        mems = []
        for _ in range(2):
            model = build_model(seq, mc, 3)
            strat = make_strategy(
                StrategyConfig(kind="GEM", memory_per_task=5, epochs=5),
                model, view, 3)
            strat.train_task(0)
            _, _, rows = strat.memory[0]
            mems.append(rows.ids)
        assert np.array_equal(mems[0], mems[1])

    def test_memory_size_capped_by_train_set(self):
        seq, view, mc = _toy()
        model = build_model(seq, mc, 3)
        strat = make_strategy(
            StrategyConfig(kind="GEM", memory_per_task=10 ** 6, epochs=3),
            model, view, 3)
        strat.train_task(0)
        _, _, rows = strat.memory[0]
        assert len(rows.ids) == len(seq.tasks[0].train)

    def test_memory_indices_come_from_task_train_nodes(self):
        seq, view, mc = _toy()
        model = build_model(seq, mc, 3)
        strat = make_strategy(
            StrategyConfig(kind="GEM", memory_per_task=4, epochs=3),
            model, view, 3)
        strat.train_task(0)
        strat.train_task(1)
        for k, (_, _, rows) in enumerate(strat.memory):
            assert set(rows.ids) <= set(seq.tasks[k].train)


class TestTrainingLoop:
    def test_curve_length_equals_epochs(self):
        seq, view, mc = _toy()
        model = build_model(seq, mc, 3)
        strat = make_strategy(StrategyConfig(kind="FINETUNE", epochs=17),
                              model, view, 3)
        curve = strat.train_task(0)
        assert len(curve) == 17
        assert all(np.isfinite(v) for v in curve)

    def test_early_stopping_fires_on_plateau(self):
        # lr=0 freezes the loss, so patience elapses immediately
        seq, view, mc = _toy()
        model = build_model(seq, mc, 3)
        strat = make_strategy(
            StrategyConfig(kind="FINETUNE", epochs=500, lr=0.0,
                           early_stop_patience=5), model, view, 3)
        curve = strat.train_task(0)
        assert len(curve) == 6  # 1 improving epoch + 5 patience epochs

    def test_losses_decrease_overall(self):
        seq, view, mc = _toy()
        model = build_model(seq, mc, 3)
        strat = make_strategy(StrategyConfig(kind="FINETUNE", epochs=60),
                              model, view, 3)
        curve = strat.train_task(0)
        assert curve[-1] < curve[0] * 0.5


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            StrategyConfig(kind="SGD")

    def test_negative_coefficients(self):
        for field_name in ("lambda_l", "lambda_t", "beta", "lambda_reg"):
            with pytest.raises(ConfigError):
                StrategyConfig(**{field_name: -1.0})

    def test_bad_capacity_mode(self):
        # the capacity term is always exact; configs naming the removed
        # capacity_mode field fail loudly instead of being ignored
        raw = {"strategy": {"kind": "TWP", "capacity_mode": "frozen"}}
        with pytest.raises(ConfigError, match="capacity_mode"):
            run_config_from_dict(raw)

    def test_negative_lr_and_patience(self):
        # a negative lr ascends the loss and a negative patience turns
        # early stopping off; lr = 0 (frozen parameters) stays legal
        with pytest.raises(ConfigError, match="lr"):
            StrategyConfig(lr=-0.001)
        with pytest.raises(ConfigError, match="early_stop_patience"):
            StrategyConfig(early_stop_patience=-1)
        assert StrategyConfig(lr=0.0).lr == 0.0

    def test_bad_epochs_temperature_memory(self):
        with pytest.raises(ConfigError):
            StrategyConfig(epochs=0)
        with pytest.raises(ConfigError):
            StrategyConfig(distill_temperature=0.0)
        with pytest.raises(ConfigError):
            StrategyConfig(memory_per_task=0)


class TestTwpCapacityModes:
    def test_exact_capacity_gradient_on_graph_tasks(self):
        # the capacity term differentiates through the graph-level BCE
        seq = build_dataset(GRAPHS_DS, 0)
        view = TaskView(seq)
        rows = view.train_item(0)[2]
        for backbone in ("gcn", "gin"):
            model = build_model(
                seq, ModelConfig(backbone=backbone, hidden_dim=8), 0)
            params = model.parameters()

            def cap_live():
                loss, snap = view.train_loss(model, 0, want_attention=True)
                return capacity_regularizer(
                    model, loss, snapshot_topo(snap, rows),
                    1.0, 0.5, 0.1)

            with Tape():
                grads = backward(cap_live(), params)

            def cap_value():
                with Tape():
                    return cap_live().item()

            for name, p in model.named_parameters():
                numeric = central_diff(cap_value, [p.data])[0]
                assert max_rel_err(grads[p].data, numeric) < 1e-6, (
                    backbone, name)

    def test_default_twp_trains_graph_tasks(self):
        result = run_sequence(run_config_from_dict({
            "dataset": {"kind": "graphs", "num_tasks": 2},
            "model": {"backbone": "gcn"},
            "strategy": {"kind": "TWP", "epochs": 3}}))
        assert all(np.isfinite(v) for c in result.loss_curves for v in c)
        assert result.r.complete_rows() == 2

    def test_capacity_shares_the_objective_forward(self, monkeypatch):
        seq, view, mc = _toy(backbone="gat")
        model = build_model(seq, mc, 3)
        strat = make_strategy(StrategyConfig(kind="TWP", beta=1e-3),
                              model, view, 3)
        calls = []
        forward = GnnModel.forward_embeddings

        def counted(self, *args, **kwargs):
            calls.append(args)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(GnnModel, "forward_embeddings", counted)
        with Tape():
            strat.objective(0)
        assert len(calls) == 1

    @pytest.mark.parametrize("backbone", ["gat", "gcn", "gin"])
    def test_objective_equals_two_forward_composition(self, backbone):
        # sharing the forward changes no bit of the objective's value
        seq, view, mc = _toy(backbone=backbone)
        model = build_model(seq, mc, 3)
        cfg = StrategyConfig(kind="TWP", beta=1e-3, epochs=3)
        strat = make_strategy(cfg, model, view, 3)
        strat.train_task(0)
        for p in model.parameters():  # move off the anchor
            p.data += 0.01
        _, ctx, rows = view.train_item(1)
        with Tape():
            got = strat.objective(1).item()
        with Tape():
            loss, _ = view.train_loss(model, 1)
            pen = twp_penalty(model, strat.records)
            full, snap = view.forward(model, ctx, want_attention=True)
            cap = capacity_regularizer(
                model, view.loss(view.task_logits(model, full, 1), 1, ctx,
                                 rows),
                snapshot_topo(snap, rows), cfg.lambda_l, cfg.lambda_t,
                cfg.beta)
            want = add(add(loss, pen), cap).item()
        assert pen.item() > 0 and cap.item() > 0
        assert got == want

    def test_records_accumulate_per_task(self):
        seq, view, mc = _toy()
        model = build_model(seq, mc, 3)
        strat = make_strategy(
            StrategyConfig(kind="TWP", beta=0.0, epochs=5), model, view, 3)
        strat.train_task(0)
        assert len(strat.records) == 1
        strat.train_task(1)
        assert len(strat.records) == 2
        assert strat.records[0].task_index == 0
        assert strat.records[1].task_index == 1
