"""Training and evaluation loops plus their CSV log formats.

One optimiser step consumes ``batch_size`` cases round-robin, averages
their parameter gradients, and applies one Adam update.  The loss is
computed on the defect crop by default: the network sees the whole
defective stencil but is scored only where bone was removed, so each layer
runs only on the part of its grid that the crop depends on.  Scoring the
full grid instead is a switch away, for runs that should also punish
stray mass far from the defect.

CSV columns are part of the external contract: training logs are
``step, dice, mse, err, gf, rib`` and evaluation tables are
``case, dsc, hd_mm, hd_ab, hd_ba``.  Floats are written with ``repr`` so
the files round-trip losslessly and identical runs produce identical
bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .defects import TrainingCase
from .grid import Box, DomainError, _finite_threshold, binarize, crop
from .losses import DEFECT_CROP, FULL_VOLUME, LossReport, _components, loss_gradient, rib_loss
from .manifest import _bad_case_id
from .metrics import EmptyMaskError, MetricReport, _check_percentile, metric_report
from .net import NetConfig, NetParams, OptState, adam_step, backward, forward, init_params


class TrainingDivergedError(RuntimeError):
    """The prediction or the monitored loss stopped being finite; training halts immediately."""


@dataclass
class TrainResult:
    params: NetParams
    opt: OptState
    log: list[LossReport] = field(default_factory=list)


def _case_pass(
    params: NetParams, case: TrainingCase, kind: str, region: str
) -> tuple[LossReport, dict[str, np.ndarray]]:
    box = case.box if region == DEFECT_CROP else Box((0, 0, 0), case.defective.dims)
    pred, tape = forward(params, case.defective, box)
    truth = crop(case.implant, box)
    report = rib_loss(pred, truth, region)
    return report, backward(tape, loss_gradient(kind, pred, truth))


def train(
    cases: list[TrainingCase],
    config: NetConfig,
    opt: OptState,
    steps: int,
    loss_kind: str = "mse+err+gf",
    seed: int = 0,
    region: str = DEFECT_CROP,
    params: NetParams | None = None,
) -> TrainResult:
    """Run ``steps`` Adam updates; deterministic given its arguments.

    ``params`` continues from an existing state (say, a loaded
    checkpoint); otherwise fresh parameters are drawn from ``seed``.
    With ``steps=0`` you get those initial parameters and an empty log.
    The round-robin case cursor is derived from ``opt.step``, so
    ``steps=k`` followed by ``steps=n-k`` with the returned params and
    ``opt`` gives the same log and bytes as ``steps=n`` in one call.
    """
    if not cases:
        raise DomainError("need at least one training case")
    if steps < 0:
        raise DomainError(f"step count must be non-negative, got {steps}")
    if region not in (DEFECT_CROP, FULL_VOLUME):
        raise DomainError(f"unknown loss region {region!r}")
    _components(loss_kind)  # a bad kind is a DomainError before any forward
    if params is None:
        params = init_params(config, seed)
    result = TrainResult(params=params, opt=opt)

    for step in range(1, steps + 1):
        acc: dict[str, np.ndarray] | None = None
        reports: list[LossReport] = []
        for j in range(opt.batch_size):
            c = (opt.step * opt.batch_size + j) % len(cases)
            try:
                report, grads = _case_pass(params, cases[c], loss_kind, region)
            except DomainError as exc:
                # the cases, kind and region were checked already, so only a
                # prediction or gradient that stopped being finite gets here
                raise TrainingDivergedError(f"diverged at step {step}, case {c}: {exc}") from exc
            reports.append(report)
            if acc is None:
                acc = grads
            else:
                for name in acc:
                    acc[name] += grads[name]
        assert acc is not None
        for name in acc:
            acc[name] /= opt.batch_size
        k = len(reports)
        mean = LossReport(
            dice=sum(r.dice for r in reports) / k,
            mse=sum(r.mse for r in reports) / k,
            err=sum(r.err for r in reports) / k,
            gf=sum(r.gf for r in reports) / k,
            rib=sum(r.rib for r in reports) / k,
            n=reports[0].n,
            region=region,
        )
        if not math.isfinite(mean.total(loss_kind)):
            raise TrainingDivergedError(
                f"non-finite {loss_kind} loss at step {step}: "
                f"dice={mean.dice!r} mse={mean.mse!r} err={mean.err!r} gf={mean.gf!r}"
            )
        result.log.append(mean)
        adam_step(params, acc, opt)
    return result


def train_log_csv(log: list[LossReport]) -> str:
    lines = ["step,dice,mse,err,gf,rib"]
    for i, r in enumerate(log, start=1):
        lines.append(f"{i},{r.dice!r},{r.mse!r},{r.err!r},{r.gf!r},{r.rib!r}")
    return "\n".join(lines) + "\n"


def evaluate(
    params: NetParams,
    cases: list[TrainingCase],
    threshold: float = 0.5,
    percentile: float = 100.0,
) -> list[MetricReport]:
    """Binarise each prediction on its defect crop and score against truth.

    An all-background prediction crop has no surface: rather than score a made-up
    distance, this raises :class:`EmptyMaskError` naming the case's index and the threshold.
    A threshold or percentile that ``binarize`` or the metrics would reject is rejected
    before the first forward, with their error.
    """
    _finite_threshold(threshold)
    _check_percentile(percentile)
    out: list[MetricReport] = []
    for i, case in enumerate(cases):
        pred = binarize(forward(params, case.defective, case.box)[0], threshold)
        try:
            out.append(metric_report(pred, crop(case.implant, case.box), percentile))
        except EmptyMaskError as exc:
            raise EmptyMaskError(f"case {i} at threshold {threshold!r}: {exc}", case=i) from None
    return out


def eval_csv(ids: list[str], reports: list[MetricReport]) -> str:
    if len(ids) != len(reports):
        raise DomainError(f"{len(ids)} ids for {len(reports)} reports")
    lines = ["case,dsc,hd_mm,hd_ab,hd_ba"]
    for i, (cid, r) in enumerate(zip(ids, reports)):
        if _bad_case_id(cid):
            raise DomainError(f"case {i}: id {cid!r} is empty or holds a comma, a quote, CR or LF")
        lines.append(f"{cid},{r.dsc!r},{r.hd!r},{r.hd_ab!r},{r.hd_ba!r}")
    return "\n".join(lines) + "\n"
