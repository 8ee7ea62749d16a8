"""Loss values on worked examples, component relations, gradient oracle."""

import dataclasses

import numpy as np
import pytest

import ribfill.losses as losses
from conftest import unit_volume
from ribfill.grid import UNIT, DomainError, Mask, ShapeError, Volume
from ribfill.losses import (
    DICE_EPS,
    LOSS_KINDS,
    LossReport,
    finite_diff_check,
    loss_gradient,
    loss_value,
    rib_loss,
)

S = (1.0, 1.0, 1.0)


def _pair(rng, dims=(8, 8, 8)):
    return unit_volume(rng, dims), unit_volume(rng, dims)


def test_perfect_prediction_scores_zero():
    rng = np.random.default_rng(0)
    v = unit_volume(rng, (6, 6, 6))
    assert loss_value("mse", v, v) == 0.0
    assert loss_value("err", v, v) >= 0.0  # not zero in general: soft values overlap
    m = Mask((rng.uniform(size=(6, 6, 6)) < 0.5).astype(np.float64), S)
    assert loss_value("err", m, m) == 0.0
    assert loss_value("gf", m, m) == 0.0
    assert loss_value("dice", m, m) < 1e-6
    report = rib_loss(m, m)
    assert report.rib == 0.0
    assert report.n == 216


def test_extraneous_voxels_worked_example():
    # truth: 8 voxels; prediction: the same 8 plus 3 extraneous, in 4x4x4
    truth = np.zeros((4, 4, 4))
    truth[0, 0, :2] = 1.0
    truth[1, 1, :2] = 1.0
    truth[2, 2, :2] = 1.0
    truth[3, 3, :2] = 1.0
    pred = truth.copy()
    pred[0, 3, :3] = 1.0
    tm, pm = Mask(truth, S), Mask(pred, S)
    report = rib_loss(pm, tm)
    assert report.mse == pytest.approx(3 / 64)
    assert report.err == pytest.approx(3 / 64)
    assert report.gf == 0.0
    assert report.rib == pytest.approx(6 / 64)
    assert report.dice > 0.0  # tracked but not part of rib


def test_dice_worked_example():
    # |pred| = 4, |truth| = 8, overlap 4 -> loss = 1 - 8/12
    truth = np.zeros((2, 2, 2))
    truth.reshape(-1)[:] = 1.0
    pred = np.zeros((2, 2, 2))
    pred.reshape(-1)[:4] = 1.0
    val = loss_value("dice", Mask(pred, S), Mask(truth, S))
    assert val == pytest.approx(1.0 - 8.0 / 12.0, abs=1e-6)


def test_err_gf_duality():
    rng = np.random.default_rng(1)
    a, b = _pair(rng)
    assert loss_value("gf", a, b) == loss_value("err", b, a)  # exact, same computation


def test_all_masses_bounded_by_one():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a, b = _pair(rng, (5, 4, 3))
        for kind in ("mse", "err", "gf"):
            v = loss_value(kind, a, b)
            assert 0.0 <= v <= 1.0
        assert 0.0 <= loss_value("dice", a, b) <= 1.0


def test_kind_validation_and_shapes():
    rng = np.random.default_rng(3)
    a, b = _pair(rng, (4, 4, 4))
    with pytest.raises(DomainError):
        loss_value("mse+mae", a, b)
    with pytest.raises(ShapeError):
        loss_value("mse", a, unit_volume(rng, (4, 4, 2)))
    hu = Volume(np.zeros((4, 4, 4)), S, "HU")
    with pytest.raises(DomainError):
        loss_value("mse", a, hu)
    with pytest.raises(DomainError):
        loss_value("rib", a, b)  # a report field, not a kind
    for kind in ("gf+gf", "err+mse"):  # joins of components that are not listed kinds
        with pytest.raises(DomainError):
            loss_value(kind, a, b)


def test_report_total_equals_loss_value_for_every_kind():
    rng = np.random.default_rng(7)
    pred, truth = _pair(rng, (6, 5, 4))
    report = rib_loss(pred, truth)
    for kind in LOSS_KINDS:
        assert report.total(kind) == loss_value(kind, pred, truth), kind
    assert report.total("mse+err+gf") == report.rib


def test_one_table_declares_the_components_in_log_order():
    components = tuple(losses._COMPONENTS)
    assert components == ("dice", "mse", "err", "gf")
    assert LOSS_KINDS[: len(components)] == components
    assert losses._LOG_COLUMNS == (*components, "rib")
    assert tuple(f.name for f in dataclasses.fields(LossReport))[: len(losses._LOG_COLUMNS)] == losses._LOG_COLUMNS


def test_gradient_shapes_and_descent_direction():
    rng = np.random.default_rng(4)
    pred, truth = _pair(rng, (6, 6, 6))
    for kind in LOSS_KINDS:
        g = loss_gradient(kind, pred, truth)
        assert g.data.shape == pred.data.shape
        assert g.domain == "unbounded"
        # a small step against the gradient must not increase the loss
        step = 1e-4 * g.data / max(np.abs(g.data).max(), 1e-12)
        moved = Volume(np.clip(pred.data - step, 0.0, 1.0), S, UNIT)
        assert loss_value(kind, moved, truth) <= loss_value(kind, pred, truth) + 1e-12


def test_finite_diff_agreement_all_kinds():
    rng = np.random.default_rng(5)
    for kind in LOSS_KINDS:
        worst = 0.0
        for _ in range(3):
            pred, truth = _pair(rng, (5, 5, 5))
            worst = np.maximum(worst, finite_diff_check(kind, pred, truth, h=1e-3))  # keeps a NaN
        assert worst < 1e-4, f"{kind}: {worst}"


@pytest.mark.parametrize("component", ["mse", "gf"])
def test_a_nan_in_one_gradient_kernel_fails_the_fd_check(monkeypatch, component):
    # fault injection: C2's oracle returns the NaN, where it once reported the worst finite error
    value, grad = losses._COMPONENTS[component]

    def planted(p, g):
        out = grad(p, g)
        out[-1] = np.nan
        return out

    monkeypatch.setitem(losses._COMPONENTS, component, (value, planted))
    pred, truth = _pair(np.random.default_rng(7), (3, 3, 3))
    for kind in (component, "mse+err+gf"):
        assert np.isnan(finite_diff_check(kind, pred, truth, h=1e-3))
    assert finite_diff_check("err", pred, truth, h=1e-3) < 1e-4


def test_finite_diff_returns_nan_when_the_differences_overflow():
    # (p +- h)**2 overflows, so the central difference is inf - inf
    pred, truth = _pair(np.random.default_rng(8), (2, 2, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(finite_diff_check("mse", pred, truth, h=1e300))


def test_finite_diff_rejects_bad_step():
    rng = np.random.default_rng(6)
    pred, truth = _pair(rng, (3, 3, 3))
    with pytest.raises(DomainError):
        finite_diff_check("mse", pred, truth, h=0.0)
    with pytest.raises(DomainError):
        finite_diff_check("mse", pred, truth, h=-1e-3)
    with pytest.raises(DomainError):
        finite_diff_check("mse", pred, truth, h=np.inf)


def test_dice_eps_keeps_empty_pair_finite():
    z = Mask(np.zeros((4, 4, 4)), S)
    assert loss_value("dice", z, z) == 0.0  # eps/eps
    assert np.isfinite(loss_gradient("dice", z, z).data).all()
    assert DICE_EPS == 1e-6
