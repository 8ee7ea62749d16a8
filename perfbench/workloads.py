"""The three benchmark workloads, driven through ribfill's public API.

Each workload builds its inputs from the seed in :meth:`setup`, then runs
one *unit* of work per call: an Adam step (``train_desk``) or a case
(``eval_cohort``, ``prep_cohort``).  :meth:`check` verifies a unit's
outputs outside the timed region; :meth:`finish` does the end-of-run IO and
:meth:`final_checks` the run-level checks.  Library functions are looked up
on the package at call time, so the tracer's wrappers take effect.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

NET = dict(depth=2, base_channels=8)
LOSS = "mse+err+gf"
REGION = "defect-crop"
VOLUME_KEYS = ("ct", "bone", "defective", "implant")

#: pairs per brute-force oracle call; bounds its scratch memory to tens of MB
ORACLE_PAIRS = 1 << 21


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=n)]


def write_case(rf, out: Path, cid: str, seed: int, ct, config) -> tuple[Path, object, int]:
    """What ``ribfill prep`` writes for one CT: four volumes and a manifest.

    Returns the manifest path, what was written (the case, the working CT
    and the manifest) and the NIfTI bytes written.
    """
    case = rf.prepare_case(ct, config, seed)
    work_ct = rf.defects.normalized_working_ct(ct, config)
    files = {
        "ct": (f"{cid}_ct.nii", work_ct, "float32"),
        "bone": (f"{cid}_bone.nii", case.reconstruct(), "uint8"),
        "defective": (f"{cid}_defective.nii", case.defective, "uint8"),
        "implant": (f"{cid}_implant.nii", case.implant, "uint8"),
    }
    written = 0
    for fname, vol, datatype in files.values():
        rf.write_volume(out / fname, vol, datatype)
        written += (out / fname).stat().st_size
    manifest = rf.CaseManifest(
        case_id=cid,
        seed=seed,
        dims=tuple(config.work_dims),
        ct=files["ct"][0],
        bone=files["bone"][0],
        defective=files["defective"][0],
        implant=files["implant"][0],
        box=case.box,
        hu_threshold=config.hu_threshold,
        window=tuple(config.window),
    )
    mpath = out / f"{cid}.manifest"
    rf.write_manifest(mpath, manifest)
    return mpath, (case, work_ct, manifest), written


def oracle_directed_sq(rf, a, b) -> float:
    """``brute_force_hausdorff_sq(a, b)[0]`` over chunks of a's voxels.

    The directed a -> b distance is a max over a's voxels, so the max over
    chunks of a is the same number, bit for bit, in bounded memory.
    """
    pts = np.argwhere(a.data != 0.0)
    n_b = max(1, int(np.count_nonzero(b.data)))
    step = max(1, ORACLE_PAIRS // n_b)
    best = -math.inf
    for i0 in range(0, len(pts), step):
        part = np.zeros(a.data.shape)
        part[tuple(pts[i0 : i0 + step].T)] = 1.0
        best = max(best, rf.brute_force_hausdorff_sq(rf.Mask(part, a.spacing), b)[0])
    return best


class Workload:
    name = ""
    net_dims: tuple[int, int, int] | None = None  # (W, H, D) the net runs on
    runs_backward = False

    def __init__(self, rf, seed: int, work: Path) -> None:
        self.rf = rf
        self.seed = seed
        self.work = work
        self.counts: dict[str, list[float]] = {}

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, i: int):
        raise NotImplementedError

    def begin_traced(self) -> None:
        """Called between the untraced and the traced phase of a traced run."""

    def traced_unit(self, i: int):
        return self.unit(i)

    def traced_limit(self) -> int | None:
        return None

    def check(self, i: int, result) -> str | None:
        return None

    def finish(self) -> None:
        pass

    def final_checks(self, traced: bool) -> list[tuple[str, bool]]:
        return []


class TrainDesk(Workload):
    """The README desk recipe, one Adam step per unit on a single case."""

    name = "train_desk"
    net_dims = (64, 64, 32)
    runs_backward = True

    def setup(self) -> None:
        rf = self.rf
        s_phantom, s_prep, self.net_seed = _seeds(self.seed, 3)
        spec = rf.PhantomSpec(dims=self.net_dims, spacing=(6.0, 6.0, 12.0), rib_radius=2.6, seed=s_phantom)
        self.case = rf.prepare_case(rf.generate_phantom(spec), rf.PipelineConfig(), seed=s_prep)
        self.config = rf.NetConfig(**NET)
        self._fresh()
        self.untraced_log: list = []

    def _fresh(self) -> None:
        self.params = self.rf.init_params(self.config, self.net_seed)
        self.opt = self.rf.OptState(lr=1e-3, weight_decay=1e-4, batch_size=1)
        self.log: list = []

    def unit(self, i: int):
        result = self.rf.train(
            [self.case], self.config, self.opt, steps=1, loss_kind=LOSS,
            seed=self.net_seed, region=REGION, params=self.params,
        )
        self.log.extend(result.log)
        return result.log[-1]

    def begin_traced(self) -> None:
        self.untraced_log = self.log
        self._fresh()

    def traced_limit(self) -> int | None:
        return len(self.untraced_log)

    def traced_unit(self, i: int):
        """The same step as ``train``, re-driven call by call so each gets a span."""
        rf, case = self.rf, self.case
        out, cache = rf.forward(self.params, case.defective)
        pred = rf.crop(out, case.box)
        truth = rf.crop(case.implant, case.box)
        report = rf.rib_loss(pred, truth, REGION)
        grad = rf.loss_gradient(LOSS, pred, truth)
        full = np.zeros(out.data.shape)
        full[case.box.slices] = grad.data
        grads = rf.backward(cache, rf.Volume(full, out.spacing, rf.UNBOUNDED))
        rf.adam_step(self.params, grads, self.opt)
        self.log.append(report)
        return report

    def check(self, i: int, report) -> str | None:
        values = (report.dice, report.mse, report.err, report.gf, report.rib)
        if not all(math.isfinite(v) for v in values):
            return f"step {i + 1}: non-finite loss {values}"
        return None

    def finish(self) -> None:
        rf = self.rf
        self.ckpt = self.work / "checkpoint.bin"
        rf.save_checkpoint(self.ckpt, self.params, self.opt)
        self.log_text = rf.train_log_csv(self.log)
        (self.work / "training_log.csv").write_text(self.log_text, encoding="utf-8")
        self.loaded = rf.load_checkpoint(self.ckpt)
        self.count("net.checkpoint_bytes", self.ckpt.stat().st_size)

    def final_checks(self, traced: bool) -> list[tuple[str, bool]]:
        params, opt = self.loaded
        same = params.config == self.params.config and list(params.tensors) == list(self.params.tensors)
        same = same and all(
            params.tensors[k].tobytes() == self.params.tensors[k].tobytes() for k in self.params.tensors
        )
        same = same and opt.step == self.opt.step and all(
            getattr(opt, s)[k].tobytes() == getattr(self.opt, s)[k].tobytes()
            for s in ("m", "v") for k in self.params.tensors
        )
        checks = [
            ("final rib loss below the first", self.log[-1].rib < self.log[0].rib),
            ("checkpoint round-trips bitwise", same),
            (
                "training_log.csv holds train_log_csv",
                (self.work / "training_log.csv").read_text(encoding="utf-8") == self.log_text,
            ),
        ]
        if traced:
            n = len(self.log)
            checks.append((
                "re-driven log equals train() log byte for byte",
                n <= len(self.untraced_log)
                and self.log_text == self.rf.train_log_csv(self.untraced_log[:n]),
            ))
        return checks


class EvalCohort(Workload):
    """Score a checkpoint on a cohort of 128x128x64 cases read from files."""

    name = "eval_cohort"
    net_dims = (128, 128, 64)
    cases = 2

    def setup(self) -> None:
        rf = self.rf
        *case_seeds, net_seed = _seeds(self.seed, self.cases + 1)
        config = rf.PipelineConfig(work_dims=self.net_dims)
        self.manifests = []
        for k, s in enumerate(case_seeds):
            spec = rf.PhantomSpec(dims=self.net_dims, spacing=(3.0, 3.0, 6.0), seed=s)
            mpath, _, _ = write_case(rf, self.work, f"case{k:03d}", s, rf.generate_phantom(spec), config)
            self.manifests.append(mpath)
        # A fresh init with the 1x1x1 head zeroed: every conv runs at full
        # cost, and every output is exactly 0.5, which binarises to a full
        # crop, so no case can fail on an empty prediction.
        config = rf.NetConfig(**NET)
        params = rf.init_params(config, net_seed)
        head = config.layer_plan()[-1][0]
        params.tensors[f"{head}.w"][...] = 0.0
        params.tensors[f"{head}.b"][...] = 0.0
        self.ckpt = self.work / "checkpoint.bin"
        rf.save_checkpoint(self.ckpt, params, rf.OptState())
        self.params = rf.load_checkpoint(self.ckpt)[0]
        self.reports: dict[int, object] = {}

    def unit(self, i: int):
        rf = self.rf
        mpath = self.manifests[i % self.cases]
        m = rf.read_manifest(mpath)
        defective = rf.binarize(rf.read_volume(m.volume_path("defective", mpath))[0], 0.5)
        implant = rf.binarize(rf.read_volume(m.volume_path("implant", mpath))[0], 0.5)
        out = rf.forward(self.params, defective)[0]
        pred = rf.binarize(rf.crop(out, m.box), 0.5)
        truth = rf.crop(implant, m.box)
        return m, pred, truth, rf.metric_report(pred, truth)

    def check(self, i: int, result) -> str | None:
        rf = self.rf
        m, pred, truth, report = result
        k = i % self.cases
        self.count("metrics.crop_voxels", pred.data.size)
        self.count("metrics.surface_voxels", report.n_a + report.n_b)
        self.count("nifti.bytes_read", sum(m.volume_path(key, self.manifests[k]).stat().st_size
                                           for key in ("defective", "implant")))
        if k in self.reports:
            if report != self.reports[k]:
                return f"{m.case_id}: report changed between evaluations"
            return None
        self.reports[k] = report
        sq_ab = rf.directed_hausdorff_sq(pred, truth)
        sq_ba = rf.directed_hausdorff_sq(truth, pred)
        oracle = (oracle_directed_sq(rf, pred, truth), oracle_directed_sq(rf, truth, pred))
        if (sq_ab, sq_ba) != oracle:
            return f"{m.case_id}: squared directed distances {(sq_ab, sq_ba)} != oracle {oracle}"
        if (report.hd_ab, report.hd_ba) != (math.sqrt(sq_ab), math.sqrt(sq_ba)):
            return f"{m.case_id}: reported distances are not the roots of the squared ones"
        return None

    def finish(self) -> None:
        self.count("net.checkpoint_bytes", self.ckpt.stat().st_size)


class PrepCohort(Workload):
    """Render, prepare, write and read back a cohort at the CLI defaults."""

    name = "prep_cohort"
    slots = 8  # file names are reused round-robin so disk use stays bounded

    def setup(self) -> None:
        rf = self.rf
        self.config = rf.PipelineConfig()
        self.rng = np.random.default_rng(self.seed)
        # One untimed round trip warms allocator, page cache and file names.
        self._round_trip(int(self.rng.integers(0, 2**31 - 1)), "warmup")

    def _round_trip(self, s: int, cid: str):
        rf = self.rf
        ct = rf.generate_phantom(rf.PhantomSpec(seed=s))
        mpath, made, written = write_case(rf, self.work, cid, s, ct, self.config)
        m = rf.read_manifest(mpath)
        vols = {k: rf.read_volume(m.volume_path(k, mpath))[0] for k in VOLUME_KEYS}
        return mpath, made, written, m, vols

    def unit(self, i: int):
        return self._round_trip(int(self.rng.integers(0, 2**31 - 1)), f"case{i % self.slots:03d}")

    def check(self, i: int, result) -> str | None:
        mpath, (case, work_ct, manifest), written, m, vols = result
        self.count("nifti.bytes_written", written)
        self.count("nifti.bytes_read", sum(m.volume_path(k, mpath).stat().st_size for k in VOLUME_KEYS))
        if m != manifest:
            return f"{mpath.name}: manifest read back differs"
        expect = {
            "ct": work_ct.data.astype("<f4").astype(np.float64),
            "bone": case.reconstruct().data,
            "defective": case.defective.data,
            "implant": case.implant.data,
        }
        spacing = tuple(float(np.float32(x)) for x in work_ct.spacing)  # headers hold float32
        for k in VOLUME_KEYS:
            if not np.array_equal(vols[k].data, expect[k]) or vols[k].spacing != spacing:
                return f"{mpath.name}: {k} volume read back differs"
        d, g, b = vols["defective"].data, vols["implant"].data, vols["bone"].data
        if np.any(d * g != 0.0) or not np.array_equal(np.maximum(d, g), b):
            return f"{mpath.name}: defective and implant do not partition the stencil"
        return None


WORKLOADS = {w.name: w for w in (TrainDesk, EvalCohort, PrepCohort)}
