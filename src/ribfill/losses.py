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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import UNBOUNDED, UNIT, DomainError, ShapeError, Volume

DICE_EPS = 1e-6

#: every loss kind a ``kind`` argument takes, which CLI ``train --loss`` offers and ``gradcheck`` checks
LOSS_KINDS = ("dice", "mse", "err", "gf", "mse+err", "mse+err+gf")

DEFECT_CROP = "defect-crop"
FULL_VOLUME = "full-volume"


@dataclass(frozen=True)
class LossReport:
    """Every component on one pair, whatever kind was being optimised."""

    dice: float
    mse: float
    err: float
    gf: float
    rib: float          # mse + err + gf; dice deliberately excluded
    n: int              # voxels the means ran over
    region: str = DEFECT_CROP

    def total(self, kind: str) -> float:
        """The loss of ``kind`` summed from this report's components, as :func:`loss_value` sums it."""
        return sum(getattr(self, c) for c in _components(kind))


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


# --- flat-array kernels; also evaluated at perturbed points outside [0, 1]


def _masked_sq_mean(gate: np.ndarray, val: np.ndarray) -> float:
    r = gate * val
    return float(np.mean(r * r, dtype=np.float64))


def _value_flat(comps: tuple[str, ...], p: np.ndarray, g: np.ndarray) -> float:
    total = 0.0
    for c in comps:
        if c == "mse":
            d = p - g
            total += float(np.mean(d * d, dtype=np.float64))
        elif c == "err":
            total += _masked_sq_mean(1.0 - g, p)
        elif c == "gf":
            total += _masked_sq_mean(1.0 - p, g)
        else:  # dice
            num = 2.0 * float(np.sum(p * g, dtype=np.float64)) + DICE_EPS
            den = float(np.sum(p, dtype=np.float64)) + float(np.sum(g, dtype=np.float64)) + DICE_EPS
            total += 1.0 - num / den
    return total


def _grad_flat(comps: tuple[str, ...], p: np.ndarray, g: np.ndarray) -> np.ndarray:
    n = p.size
    out = np.zeros_like(p)
    for c in comps:
        if c == "mse":
            out += (2.0 / n) * (p - g)
        elif c == "err":
            q = 1.0 - g
            out += (2.0 / n) * q * q * p
        elif c == "gf":
            out += (-2.0 / n) * g * g * (1.0 - p)
        else:  # dice: quotient rule on (2*sum(pg)+eps)/(sum p + sum g + eps)
            num = 2.0 * float(np.sum(p * g, dtype=np.float64)) + DICE_EPS
            den = float(np.sum(p, dtype=np.float64)) + float(np.sum(g, dtype=np.float64)) + DICE_EPS
            out += (num - 2.0 * g * den) / (den * den)
    return out


# --- public, volume-level API


def rib_loss(pred: Volume, truth: Volume, region: str = DEFECT_CROP) -> LossReport:
    """All components at once; ``rib`` is their unweighted sum minus dice."""
    _check_pair(pred, truth)
    p, g = pred.ravel(), truth.ravel()
    mse = _value_flat(("mse",), p, g)
    err = _value_flat(("err",), p, g)
    gf = _value_flat(("gf",), p, g)
    dice = _value_flat(("dice",), p, g)
    return LossReport(dice=dice, mse=mse, err=err, gf=gf, rib=mse + err + gf, n=p.size, region=region)


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
    near-zero gradients do not blow it up.
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
        if rel > worst:
            worst = rel
    return worst
