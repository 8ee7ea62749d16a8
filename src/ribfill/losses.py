"""Reconstruction losses, their analytic gradients, and a gradient oracle.

All losses compare a predicted unit-domain volume ``p`` against a ground
truth ``g`` of the same dims.  Beyond plain MSE and soft Dice there are two
one-sided penalties that split the error by where it lives:

* extra-region residual ``(1 - g) * p``: mass predicted where no bone
  belongs (should be removed),
* gap-fill residual ``(1 - p) * g``: bone left unpredicted (should be
  filled).

Both are penalised by their mean square.  The combined training loss is
``mse + err + gf``, unweighted; Dice is tracked alongside for reporting
but never added in.  Every gradient here can be checked against central
finite differences with :func:`finite_diff_check`; tests hold the whole
module to that.

``_COMPONENTS`` declares the four components once, in training-log column
order, each with its value and gradient kernel.  The loss kinds, the
kernels' sums, :func:`rib_loss`, and (through ``_LOG_COLUMNS``, the
components then ``rib``) ``train``'s batch mean, its divergence message,
``train_log_csv`` and the CLI's training summary all read that table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import UNBOUNDED, UNIT, DomainError, ShapeError, Volume

DICE_EPS = 1e-6

DEFECT_CROP = "defect-crop"
FULL_VOLUME = "full-volume"


# --- flat-array kernels; also evaluated at perturbed points outside [0, 1]


def _sq_mean(r: np.ndarray) -> float:
    return float(np.mean(r * r, dtype=np.float64))


def _dice_terms(p: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """Soft Dice's ratio as ``(2*sum(pg) + eps, sum p + sum g + eps)``."""
    num = 2.0 * float(np.sum(p * g, dtype=np.float64)) + DICE_EPS
    den = float(np.sum(p, dtype=np.float64)) + float(np.sum(g, dtype=np.float64)) + DICE_EPS
    return num, den


def _dice_value(p: np.ndarray, g: np.ndarray) -> float:
    num, den = _dice_terms(p, g)
    return 1.0 - num / den


def _dice_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    num, den = _dice_terms(p, g)  # quotient rule
    return (num - 2.0 * g * den) / (den * den)


def _mse_value(p: np.ndarray, g: np.ndarray) -> float:
    return _sq_mean(p - g)


def _mse_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    return (2.0 / p.size) * (p - g)


def _err_value(p: np.ndarray, g: np.ndarray) -> float:
    return _sq_mean((1.0 - g) * p)


def _err_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    return (2.0 / p.size) * (1.0 - g) * (1.0 - g) * p


def _gf_value(p: np.ndarray, g: np.ndarray) -> float:
    return _sq_mean((1.0 - p) * g)


def _gf_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    return (-2.0 / p.size) * g * g * (1.0 - p)


#: every loss component in training-log column order, with its value and gradient kernels
_COMPONENTS = {
    "dice": (_dice_value, _dice_grad),
    "mse": (_mse_value, _mse_grad),
    "err": (_err_value, _err_grad),
    "gf": (_gf_value, _gf_grad),
}
#: the combined training loss, which ``LossReport.rib`` holds; Dice is tracked but never added in
_RIB_KIND = "mse+err+gf"
#: every loss kind a ``kind`` argument takes, which CLI ``train --loss`` offers and ``gradcheck`` checks
LOSS_KINDS = (*_COMPONENTS, "mse+err", _RIB_KIND)
#: the training log's loss columns, and the fields of :class:`LossReport` they hold
_LOG_COLUMNS = (*_COMPONENTS, "rib")


def _in_order_sum(terms):
    """Floats or arrays added left to right from 0.0; unlike ``sum`` on Python 3.12+, never compensated."""
    total = 0.0
    for t in terms:
        total += t
    return total


def _value_flat(comps: tuple[str, ...], p: np.ndarray, g: np.ndarray) -> float:
    return _in_order_sum(_COMPONENTS[c][0](p, g) for c in comps)


def _grad_flat(comps: tuple[str, ...], p: np.ndarray, g: np.ndarray) -> np.ndarray:
    # 0.0 + the first kernel's array is a new array, and the rest are added into it in place
    return _in_order_sum(_COMPONENTS[c][1](p, g) for c in comps)


@dataclass(frozen=True)
class LossReport:
    """Every component on one pair, whatever kind was being optimised; fields before ``n`` follow ``_LOG_COLUMNS``."""

    dice: float
    mse: float
    err: float
    gf: float
    rib: float          # mse + err + gf; dice deliberately excluded
    n: int              # voxels the means ran over
    region: str = DEFECT_CROP

    def total(self, kind: str) -> float:
        """The loss of ``kind`` summed from this report's components, as :func:`loss_value` sums it."""
        return _in_order_sum(getattr(self, c) for c in _components(kind))


def _components(kind: str) -> tuple[str, ...]:
    if kind not in LOSS_KINDS:
        raise DomainError(f"unknown loss kind {kind!r}; valid: {LOSS_KINDS}")
    return tuple(kind.split("+"))


def _check_pair(pred: Volume, truth: Volume) -> None:
    if pred.data.shape != truth.data.shape:
        raise ShapeError(f"dims mismatch: {pred.dims} vs {truth.dims}")
    if pred.domain != UNIT or truth.domain != UNIT:
        raise DomainError(
            f"losses need unit-domain volumes, got {pred.domain!r} vs {truth.domain!r}"
        )


# --- public, volume-level API


def rib_loss(pred: Volume, truth: Volume, region: str = DEFECT_CROP) -> LossReport:
    """All components at once; ``rib`` is their unweighted sum minus dice."""
    _check_pair(pred, truth)
    p, g = pred.ravel(), truth.ravel()
    values = {c: value(p, g) for c, (value, _) in _COMPONENTS.items()}
    rib = _in_order_sum(values[c] for c in _components(_RIB_KIND))
    return LossReport(**values, rib=rib, n=p.size, region=region)


def loss_value(kind: str, pred: Volume, truth: Volume) -> float:
    comps = _components(kind)
    _check_pair(pred, truth)
    return _value_flat(comps, pred.ravel(), truth.ravel())


def loss_gradient(kind: str, pred: Volume, truth: Volume) -> Volume:
    """d(loss)/d(pred), same dims as ``pred``, unbounded domain."""
    comps = _components(kind)
    _check_pair(pred, truth)
    g = _grad_flat(comps, pred.ravel(), truth.ravel())
    return Volume(g.reshape(pred.data.shape), pred.spacing, UNBOUNDED)


def finite_diff_check(kind: str, pred: Volume, truth: Volume, h: float = 1e-3) -> float:
    """Worst relative disagreement between analytic and central-difference grads.

    Every voxel of ``pred`` is perturbed by ``+-h`` in turn; the relative
    error uses ``max(|analytic|, |numeric|, 1e-8)`` as denominator so that
    near-zero gradients do not blow it up.  A NaN error is the worst case:
    it is returned at once, so that no tolerance passes it.
    """
    comps = _components(kind)
    _check_pair(pred, truth)
    h = float(h)
    if not (np.isfinite(h) and h > 0.0):
        raise DomainError(f"step size must be positive and finite, got {h}")
    p = pred.ravel().copy()
    g = truth.ravel()
    analytic = _grad_flat(comps, p, g)
    worst = 0.0
    for i in range(p.size):
        orig = p[i]
        p[i] = orig + h
        fp = _value_flat(comps, p, g)
        p[i] = orig - h
        fm = _value_flat(comps, p, g)
        p[i] = orig
        numeric = (fp - fm) / (2.0 * h)
        a = analytic[i]
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        if np.isnan(rel):
            return rel
        if rel > worst:
            worst = rel
    return worst
