"""Training loop behaviour, evaluation, and the CSV log contracts."""

import importlib
import re

import numpy as np
import pytest

from ribfill.defects import DefectSpec, PipelineConfig, prepare_case
from ribfill.grid import HU, DomainError, ShapeError, Volume, crop
from ribfill.losses import DEFECT_CROP, FULL_VOLUME, LossReport, loss_gradient, rib_loss
from ribfill.metrics import EmptyMaskError, MetricReport
from ribfill.net import NetConfig, OptState, adam_step, backward, forward, init_params
from ribfill.train import (
    TrainingDivergedError,
    eval_csv,
    evaluate,
    train,
    train_log_csv,
)

CFG = NetConfig(depth=1, base_channels=2)


def tiny_case(seed=0):
    """16x16x8 slab with a bone plate, defect carved by the usual pipeline."""
    data = np.full((8, 16, 16), -1000.0)
    data[1:7, 2:14, 2:14] = 40.0
    data[3:6, 4:12, 4:12] = 700.0
    ct = Volume(data, (2.0, 2.0, 4.0), HU)
    cfg = PipelineConfig(work_dims=(16, 16, 8), defect=DefectSpec(size=(4, 4, 4), band=(0.4, 0.6)))
    return prepare_case(ct, cfg, seed=seed)


def test_zero_steps_returns_seeded_init_and_empty_log():
    case = tiny_case()
    res = train([case], CFG, OptState(), steps=0, seed=7)
    assert res.log == []
    ref = init_params(CFG, seed=7)
    for name, t in ref.tensors.items():
        assert np.array_equal(res.params.tensors[name], t)


def test_short_run_reduces_monitored_loss():
    case = tiny_case()
    res = train([case], CFG, OptState(lr=1e-2), steps=40, seed=0)
    assert len(res.log) == 40
    assert res.log[-1].rib < res.log[0].rib


def test_training_is_deterministic():
    case = tiny_case()
    a = train([case], CFG, OptState(lr=1e-2), steps=10, seed=3)
    b = train([tiny_case()], CFG, OptState(lr=1e-2), steps=10, seed=3)
    for name, t in a.params.tensors.items():
        assert np.array_equal(b.params.tensors[name], t)
    assert train_log_csv(a.log) == train_log_csv(b.log)


def test_non_finite_loss_aborts(monkeypatch):
    import sys

    trainmod = sys.modules["ribfill.train"]

    case = tiny_case()
    bad = LossReport(dice=np.nan, mse=np.nan, err=0.0, gf=0.0, rib=np.nan, n=1, region=DEFECT_CROP)
    monkeypatch.setattr(trainmod, "rib_loss", lambda *a: bad)
    with pytest.raises(TrainingDivergedError, match="step 1"):
        train([case], CFG, OptState(), steps=5)
    with pytest.raises(TrainingDivergedError) as err:
        train([case], CFG, OptState(), steps=5, loss_kind="mse")
    assert str(err.value) == "non-finite mse loss at step 1: dice=nan mse=nan err=0.0 gf=0.0"


def test_huge_learning_rate_raises_divergence():
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        TrainingDivergedError, match=r"step \d+, case 0"
    ):
        train([tiny_case()], CFG, OptState(lr=1e300), steps=6)


def test_train_argument_validation():
    case = tiny_case()
    with pytest.raises(DomainError, match="at least one"):
        train([], CFG, OptState(), steps=1)
    with pytest.raises(DomainError, match="non-negative"):
        train([case], CFG, OptState(), steps=-1)
    with pytest.raises(DomainError, match="region"):
        train([case], CFG, OptState(), steps=1, region="crop")
    with pytest.raises(DomainError, match="loss kind"):
        train([case], CFG, OptState(), steps=1, loss_kind="rib")
    with pytest.raises(DomainError, match="loss kind"):
        train([case], CFG, OptState(), steps=1, loss_kind="err+err+dice")


def test_full_volume_region_scores_the_whole_grid():
    case = tiny_case()
    res = train([case], CFG, OptState(), steps=2, region=FULL_VOLUME)
    assert res.log[0].region == FULL_VOLUME
    assert res.log[0].n == 16 * 16 * 8


def test_batched_step_averages_the_case_reports():
    cases = [tiny_case(0), tiny_case(1)]
    both = train(cases, CFG, OptState(batch_size=2), steps=1, seed=5)
    lone = [train([c], CFG, OptState(), steps=1, seed=5) for c in cases]
    assert both.log[0].dice == (lone[0].log[0].dice + lone[1].log[0].dice) / 2
    assert both.log[0].rib == (lone[0].log[0].rib + lone[1].log[0].rib) / 2


def test_continuation_from_existing_params():
    case = tiny_case()
    first = train([case], CFG, OptState(lr=1e-2), steps=5, seed=0)
    more = train([case], CFG, first.opt, steps=3, params=first.params)
    assert len(more.log) == 3
    assert more.opt.step == 8


@pytest.mark.parametrize("n_cases,batch,k", [(2, 1, 1), (3, 2, 1)])
def test_resumed_run_equals_uninterrupted_run(n_cases, batch, k):
    cases = [tiny_case(s) for s in range(n_cases)]
    whole = train(cases, CFG, OptState(lr=1e-2, batch_size=batch), steps=4, seed=2)
    head = train(cases, CFG, OptState(lr=1e-2, batch_size=batch), steps=k, seed=2)
    rest = train(cases, CFG, head.opt, steps=4 - k, params=head.params)
    assert train_log_csv(head.log + rest.log) == train_log_csv(whole.log)
    for name, t in whole.params.tensors.items():
        assert rest.params.tensors[name].tobytes() == t.tobytes()


def test_train_equals_a_full_grid_redrive():
    """train's box forward gives the log and parameters of whole-grid forward calls, byte for byte."""
    data = np.full((16, 32, 32), -1000.0)
    data[2:14, 4:28, 4:28] = 40.0
    data[5:11, 8:24, 8:24] = 700.0
    cfg = PipelineConfig(work_dims=(32, 32, 16), defect=DefectSpec(size=(4, 4, 4), band=(0.4, 0.6)))
    case = prepare_case(Volume(data, (2.0, 2.0, 4.0), HU), cfg, seed=1)
    net = NetConfig(depth=2, base_channels=2)
    res = train([case], net, OptState(lr=1e-2), steps=3, seed=5)
    params, opt, log = init_params(net, seed=5), OptState(lr=1e-2), []
    for _ in range(3):
        out, tape = forward(params, case.defective)
        pred, truth = crop(out, case.box), crop(case.implant, case.box)
        log.append(rib_loss(pred, truth, DEFECT_CROP))
        g = np.zeros(out.data.shape)
        g[case.box.slices] = loss_gradient("mse+err+gf", pred, truth).data
        adam_step(params, backward(tape, Volume(g, out.spacing)), opt)
    assert train_log_csv(res.log) == train_log_csv(log)
    for name, t in params.tensors.items():
        assert res.params.tensors[name].tobytes() == t.tobytes(), name


def test_train_log_csv_round_trips():
    case = tiny_case()
    res = train([case], CFG, OptState(), steps=3, seed=0)
    lines = train_log_csv(res.log).splitlines()
    assert lines[0] == "step,dice,mse,err,gf,rib"
    assert len(lines) == 4
    for i, r in enumerate(res.log, start=1):
        parts = lines[i].split(",")
        assert parts[0] == str(i)
        assert float(parts[1]) == r.dice
        assert float(parts[5]) == r.rib


def test_train_log_csv_bytes_are_pinned():
    log = [
        LossReport(dice=0.1 + 0.2, mse=1 / 3, err=2 / 3, gf=1e-300, rib=1 / 3 + 2 / 3 + 1e-300, n=4096),
        LossReport(dice=np.nan, mse=5e-324, err=0.0, gf=1.0, rib=123456.78901234567, n=8, region=FULL_VOLUME),
    ]
    assert train_log_csv(log) == (
        "step,dice,mse,err,gf,rib\n"
        "1,0.30000000000000004,0.3333333333333333,0.6666666666666666,1e-300,1.0\n"
        "2,nan,5e-324,0.0,1.0,123456.78901234567\n"
    )


def test_eval_csv_bytes_are_pinned():
    reports = [
        MetricReport(dsc=2 / 3, hd=0.1 + 0.2, hd_ab=0.30000000000000004, hd_ba=12.0, n_a=3, n_b=4),
        MetricReport(dsc=1.0, hd=6.000000000000001, hd_ab=1e-17, hd_ba=6.000000000000001, n_a=1, n_b=1),
    ]
    assert eval_csv(["case000", "case001"], reports) == (
        "case,dsc,hd_mm,hd_ab,hd_ba\n"
        "case000,0.6666666666666666,0.30000000000000004,0.30000000000000004,12.0\n"
        "case001,1.0,6.000000000000001,1e-17,6.000000000000001\n"
    )


def test_evaluate_scores_each_case_on_its_crop():
    case = tiny_case()
    params = init_params(CFG, seed=0)
    reports = evaluate(params, [case], threshold=0.45)
    assert len(reports) == 1
    assert 0.0 <= reports[0].dsc <= 1.0
    assert reports[0].n_b == int(case.implant.data[case.box.slices].sum())


def test_evaluate_empty_prediction_raises():
    case = tiny_case()
    params = init_params(CFG, seed=0)
    with pytest.raises(EmptyMaskError, match=r"^case 0 at threshold 0\.99: ") as exc:
        evaluate(params, [case], threshold=0.99)
    assert exc.value.case == 0


def test_eval_csv_contract():
    case = tiny_case()
    params = init_params(CFG, seed=0)
    reports = evaluate(params, [case], threshold=0.45)
    text = eval_csv(["case000"], reports)
    lines = text.splitlines()
    assert lines[0] == "case,dsc,hd_mm,hd_ab,hd_ba"
    parts = lines[1].split(",")
    assert parts[0] == "case000"
    assert float(parts[1]) == reports[0].dsc
    with pytest.raises(DomainError, match="ids"):
        eval_csv(["a", "b"], reports)


@pytest.mark.parametrize("cid", ["", "a,b", 'a"b', "a\rb", "a\nb"])
def test_eval_csv_rejects_a_case_id_that_breaks_its_row(cid):
    reports = evaluate(init_params(CFG, seed=0), [tiny_case()], threshold=0.45)
    with pytest.raises(DomainError, match=rf"^case 1: id {re.escape(repr(cid))} is empty or holds"):
        eval_csv(["case000", cid], reports * 2)


@pytest.mark.parametrize("cid", ["a\x0bb", "a\x85b", "a\u2028b", " a", "a ", "c\udcff"])
def test_eval_csv_rejects_a_case_id_a_manifest_cannot_give_back(cid):
    reports = evaluate(init_params(CFG, seed=0), [tiny_case()], threshold=0.45)
    with pytest.raises(DomainError, match=rf"^case 1: id {re.escape(repr(cid))} is empty or holds"):
        eval_csv(["case000", cid], reports * 2)


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        ({"percentile": 0.0}, ShapeError, r"percentile must be in \(0, 100\], got 0\.0"),
        ({"percentile": float("nan")}, ShapeError, r"percentile must be in \(0, 100\], got nan"),
        ({"threshold": float("nan")}, DomainError, "threshold must be finite, got nan"),
        ({"threshold": float("-inf")}, DomainError, "threshold must be finite, got -inf"),
    ],
)
def test_evaluate_checks_its_arguments_before_the_first_forward(monkeypatch, kwargs, error, message):
    def no_forward(*args, **kw):
        raise AssertionError("forward ran before the arguments were checked")

    # the module, which the package's ``train`` function shadows as an attribute
    monkeypatch.setattr(importlib.import_module("ribfill.train"), "forward", no_forward)
    with pytest.raises(error, match=message):
        evaluate(init_params(CFG, seed=0), [tiny_case()], **kwargs)
