"""Command-line front end; stages talk to each other only through files.

``phantom`` renders synthetic CTs, ``prep`` turns CTs into training cases
(volumes plus a manifest each), ``train`` fits the network on manifests,
``eval`` scores a checkpoint, and ``gradcheck`` verifies loss gradients
against finite differences.  Every subcommand takes ``--seed`` and
``--out-dir`` and is deterministic and idempotent for fixed inputs:
rerunning writes byte-identical files.  Every file is written atomically
(:func:`ribfill.grid._write_atomic`): a failed write leaves the previous file
whole, and a killed process may leave a ``<name>.<pid>.tmp`` beside an intact
target.  ``prep`` writes a case's manifest after its volumes.  A command
makes ``--out-dir`` only when it writes its first file there, so one that
fails before that leaves no directory behind.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .defects import (
    DEFAULT_BAND,
    DEFAULT_HU_THRESHOLD,
    DEFAULT_WINDOW,
    DESK_DIMS,
    DefectSpec,
    PipelineConfig,
    TrainingCase,
    normalized_working_ct,
    prepare_case,
)
from .grid import UNIT, DomainError, Mask, Volume, _write_atomic, binarize
from .losses import DEFECT_CROP, FULL_VOLUME, LOSS_KINDS, _LOG_COLUMNS, finite_diff_check
from .manifest import CaseManifest, ManifestError, read_manifest, write_manifest
from .metrics import EmptyMaskError
from .net import NetConfig, OptState, load_checkpoint, save_checkpoint
from .nifti import read_volume, write_volume
from .phantom import PhantomSpec, generate_phantom
from .train import eval_csv, evaluate, train, train_log_csv


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    sub.add_argument("--out-dir", default=".", help="directory for outputs (default .)")


def _out_path(args: argparse.Namespace, name: str) -> Path:
    """``name`` in ``--out-dir``, which is made only now, as a file is about to be written there."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _cmd_phantom(args: argparse.Namespace) -> int:
    for i in range(args.cases):
        spec = PhantomSpec(
            dims=tuple(args.dims),
            spacing=tuple(args.spacing),
            rib_pairs=args.rib_pairs,
            rib_radius=args.rib_radius,
            jitter=args.jitter,
            seed=args.seed + i,
        )
        vol = generate_phantom(spec)
        path = _out_path(args, f"case{i:03d}_ct.nii")
        write_volume(path, vol, "float32")
        print(f"wrote {path}")
    return 0


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        work_dims=tuple(args.work_dims),
        window=tuple(args.window),
        hu_threshold=args.hu_threshold,
        defect=DefectSpec(
            size=tuple(args.defect_size) if args.defect_size else None,
            band=tuple(args.band),
            min_bone_fraction=args.min_bone_frac,
            max_attempts=args.max_attempts,
        ),
    )


def _case_id(path: Path) -> str:
    return path.name.removesuffix(".nii").removesuffix("_ct")


def _cmd_prep(args: argparse.Namespace) -> int:
    config = _pipeline_config(args)
    ct_paths: dict[str, Path] = {}
    for ct_path in map(Path, args.ct):
        cid = _case_id(ct_path)
        if cid in ct_paths:
            raise ManifestError(f"case_id: {ct_paths[cid]} and {ct_path} both give case id {cid!r}")
        ct_paths[cid] = ct_path
    for i, (cid, ct_path) in enumerate(ct_paths.items()):
        seed = args.seed + i
        ct = read_volume(ct_path, domain="HU")[0]
        case = prepare_case(ct, config, seed)
        work_ct = normalized_working_ct(ct, config)
        files = {
            "ct": (f"{cid}_ct.nii", work_ct, "float32"),
            "bone": (f"{cid}_bone.nii", case.reconstruct(), "uint8"),
            "defective": (f"{cid}_defective.nii", case.defective, "uint8"),
            "implant": (f"{cid}_implant.nii", case.implant, "uint8"),
        }
        # built before any file is written, so that a case id it rejects leaves none behind
        manifest = CaseManifest(
            case_id=cid,
            seed=seed,
            dims=config.work_dims,
            **{key: name for key, (name, _, _) in files.items()},
            box=case.box,
            hu_threshold=config.hu_threshold,
            window=config.window,
        )
        for name, vol, datatype in files.values():
            write_volume(_out_path(args, name), vol, datatype)
        mpath = _out_path(args, f"{cid}.manifest")
        write_manifest(mpath, manifest)
        print(f"wrote {mpath} (box {case.box.origin}+{case.box.size})")
    return 0


def _load_mask(path: Path, dims: tuple[int, int, int]) -> Mask:
    vol = read_volume(path)[0]
    if vol.dims != dims:
        raise ManifestError(f"{path}: volume dims {vol.dims} do not match manifest dims {dims}")
    return binarize(vol, 0.5)


def _load_case(manifest_path: str | Path) -> tuple[str, TrainingCase]:
    mpath = Path(manifest_path)
    m = read_manifest(mpath)
    defective = _load_mask(m.volume_path("defective", mpath), m.dims)
    implant = _load_mask(m.volume_path("implant", mpath), m.dims)
    return m.case_id, TrainingCase(defective=defective, implant=implant, box=m.box, seed=m.seed)


def _cmd_train(args: argparse.Namespace) -> int:
    config = NetConfig(depth=args.depth, base_channels=args.base_channels)
    opt = OptState(
        lr=args.lr,
        weight_decay=args.weight_decay,
        batch_size=args.batch_size,
    )
    cases = [_load_case(p)[1] for p in args.manifests]
    result = train(
        cases, config, opt, steps=args.steps, loss_kind=args.loss,
        seed=args.seed, region=args.region,
    )
    ckpt = _out_path(args, "checkpoint.bin")
    save_checkpoint(ckpt, result.params, result.opt)
    log_path = _out_path(args, "training_log.csv")
    _write_atomic(log_path, train_log_csv(result.log).encode("utf-8"))
    print(f"wrote {ckpt}")
    print(f"wrote {log_path}")
    if result.log:
        values = " ".join(f"{c}={getattr(result.log[-1], c):.6f}" for c in _LOG_COLUMNS)
        print(f"step {len(result.log)}: {values}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    params, _ = load_checkpoint(args.checkpoint)
    ids: list[str] = []
    cases: list[TrainingCase] = []
    for p in args.manifests:
        cid, case = _load_case(p)
        ids.append(cid)
        cases.append(case)
    try:
        reports = evaluate(params, cases, threshold=args.threshold, percentile=args.percentile)
    except EmptyMaskError as exc:
        raise EmptyMaskError(f"{args.manifests[exc.case]}: {exc}", exc.case) from None
    table = _out_path(args, "metrics.csv")
    _write_atomic(table, eval_csv(ids, reports).encode("utf-8"))
    print(f"wrote {table}")
    mean_dsc = sum(r.dsc for r in reports) / len(reports)
    mean_hd = sum(r.hd for r in reports) / len(reports)
    print(f"mean dsc={mean_dsc:.4f} mean hd={mean_hd:.2f} mm over {len(reports)} cases")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.pairs < 1:
        raise DomainError(f"--pairs must be at least 1, got {args.pairs}")
    if not (np.isfinite(args.tol) and args.tol > 0.0):
        raise DomainError(f"--tol must be positive and finite, got {args.tol}")
    rng = np.random.default_rng(args.seed)
    w, h, d = args.dims
    failed = False
    for kind in args.kinds:
        worst = 0.0
        for _ in range(args.pairs):
            pred = Volume(rng.uniform(0.0, 1.0, size=(d, h, w)), (1.0, 1.0, 1.0), UNIT)
            truth = Volume(rng.uniform(0.0, 1.0, size=(d, h, w)), (1.0, 1.0, 1.0), UNIT)
            # np.maximum keeps a NaN, which max() would drop
            worst = np.maximum(worst, finite_diff_check(kind, pred, truth, h=args.h))
        ok = worst < args.tol
        failed = failed or not ok
        print(f"{kind}: max rel err {worst:.3e} ({'ok' if ok else 'FAIL'}, tol {args.tol:g})")
    return 1 if failed else 0


def _default(fn, name: str):
    """The library's default for ``fn``'s parameter ``name``, so that the CLI repeats no literal."""
    return inspect.signature(fn).parameters[name].default


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ribfill",
        description="Desk-scale rib-implant reconstruction: phantoms, defects, training, metrics.",
    )
    parser.add_argument("--version", action="version", version=f"ribfill {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    spec, defect, net, opt = PhantomSpec(), DefectSpec(), NetConfig(), OptState()
    p = subs.add_parser("phantom", help="render synthetic thorax CT volumes")
    _common(p)
    p.add_argument("--cases", type=int, default=1, help="number of volumes (default 1)")
    p.add_argument("--dims", type=int, nargs=3, default=list(spec.dims), metavar=("W", "H", "D"))
    p.add_argument("--spacing", type=float, nargs=3, default=list(spec.spacing), metavar=("SX", "SY", "SZ"))
    p.add_argument("--rib-pairs", type=int, default=spec.rib_pairs)
    p.add_argument("--rib-radius", type=float, default=spec.rib_radius)
    p.add_argument("--jitter", type=float, default=spec.jitter)
    p.set_defaults(func=_cmd_phantom)

    p = subs.add_parser("prep", help="threshold, resample, carve a defect, write a case")
    _common(p)
    p.add_argument("ct", nargs="+", help="input CT volumes (.nii)")
    p.add_argument("--work-dims", type=int, nargs=3, default=list(DESK_DIMS), metavar=("W", "H", "D"))
    p.add_argument("--hu-threshold", type=float, default=DEFAULT_HU_THRESHOLD)
    p.add_argument("--window", type=float, nargs=2, default=list(DEFAULT_WINDOW), metavar=("LO", "HI"))
    p.add_argument("--defect-size", type=int, nargs=3, default=None, metavar=("W", "H", "D"),
                   help="defect box dims (default: full-scale box rescaled to the working grid)")
    p.add_argument("--band", type=float, nargs=2, default=list(DEFAULT_BAND), metavar=("LO", "HI"))
    p.add_argument("--min-bone-frac", type=float, default=defect.min_bone_fraction)
    p.add_argument("--max-attempts", type=int, default=defect.max_attempts)
    p.set_defaults(func=_cmd_prep)

    p = subs.add_parser("train", help="fit the network on prepared cases")
    _common(p)
    p.add_argument("manifests", nargs="+", help="case manifests from prep")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--loss", choices=LOSS_KINDS, default=_default(train, "loss_kind"))
    p.add_argument("--region", choices=(DEFECT_CROP, FULL_VOLUME), default=_default(train, "region"))
    p.add_argument("--depth", type=int, default=net.depth)
    p.add_argument("--base-channels", type=int, default=net.base_channels)
    p.add_argument("--lr", type=float, default=opt.lr)
    p.add_argument("--weight-decay", type=float, default=opt.weight_decay)
    p.add_argument("--batch-size", type=int, default=opt.batch_size)
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("eval", help="score a checkpoint on prepared cases")
    _common(p)
    p.add_argument("manifests", nargs="+", help="case manifests from prep")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--threshold", type=float, default=_default(evaluate, "threshold"))
    p.add_argument("--percentile", type=float, default=_default(evaluate, "percentile"),
                   help="directed-distance percentile; 100 is the true Hausdorff")
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("gradcheck", help="compare loss gradients with finite differences")
    _common(p)
    p.add_argument("--kinds", nargs="+", choices=LOSS_KINDS, default=list(LOSS_KINDS))
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--dims", type=int, nargs=3, default=[8, 8, 8], metavar=("W", "H", "D"))
    p.add_argument("--h", type=float, default=_default(finite_diff_check, "h"))
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
