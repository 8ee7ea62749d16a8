"""Plain-text case manifests tying one prepared case's files together.

Line format is ``key = value``, UTF-8, ``#`` starts a comment line, blank
lines are ignored.  Triples (dims, box fields, the HU window) are single
space separated.  The key set is closed: unknown keys are an error, so a
typo cannot silently drop a setting.  Volume paths are stored relative to
the manifest's own directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .grid import BoundsError, Box

_VOLUME_KEYS = ("ct", "bone", "defective", "implant")
_ALL_KEYS = (
    "case_id",
    "seed",
    "dims",
    *_VOLUME_KEYS,
    "box_origin",
    "box_size",
    "hu_threshold",
    "window",
)


class ManifestError(ValueError):
    """Raised for unreadable, incomplete, or contradictory manifests."""


def _bad_case_id(case_id: str) -> bool:
    """Whether ``case_id`` cannot be one plain field of a CSV row: empty, or holding a comma, a quote, CR or LF."""
    return not case_id or any(ch in case_id for ch in ',"\r\n')


@dataclass(frozen=True)
class CaseManifest:
    """One prepared case: where its volumes live and how they were made."""

    case_id: str
    seed: int
    dims: tuple[int, int, int]
    ct: str
    bone: str
    defective: str
    implant: str
    box: Box
    hu_threshold: float
    window: tuple[float, float]

    def __post_init__(self) -> None:
        if _bad_case_id(self.case_id):
            raise ManifestError(f"case_id: {self.case_id!r} is empty or holds a comma, a quote, CR or LF")

    def volume_path(self, key: str, manifest_path: str | Path) -> Path:
        """Resolve one of the stored volume paths against the manifest location."""
        if key not in _VOLUME_KEYS:
            raise ManifestError(f"unknown volume key {key!r}")
        return Path(manifest_path).parent / getattr(self, key)


def _ints(text: str, key: str, n: int) -> tuple[int, ...]:
    parts = text.split()
    if len(parts) != n:
        raise ManifestError(f"{key}: expected {n} integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ManifestError(f"{key}: {exc}") from None


def _floats(text: str, key: str, n: int) -> tuple[float, ...]:
    parts = text.split()
    if len(parts) != n:
        raise ManifestError(f"{key}: expected {n} numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ManifestError(f"{key}: {exc}") from None


def write_manifest(path: str | Path, m: CaseManifest) -> None:
    lines = [
        f"# case {m.case_id}",
        f"case_id = {m.case_id}",
        f"seed = {m.seed}",
        "dims = {} {} {}".format(*m.dims),
        f"ct = {m.ct}",
        f"bone = {m.bone}",
        f"defective = {m.defective}",
        f"implant = {m.implant}",
        "box_origin = {} {} {}".format(*m.box.origin),
        "box_size = {} {} {}".format(*m.box.size),
        f"hu_threshold = {m.hu_threshold!r}",
        "window = {!r} {!r}".format(*m.window),
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path: str | Path) -> CaseManifest:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})") from None
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ManifestError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ManifestError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ManifestError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    for key in _ALL_KEYS:
        if key not in pairs:
            raise ManifestError(f"missing key {key!r}")

    dims = _ints(pairs["dims"], "dims", 3)
    try:
        box = Box(_ints(pairs["box_origin"], "box_origin", 3), _ints(pairs["box_size"], "box_size", 3))
    except BoundsError as exc:
        raise ManifestError(str(exc)) from None
    if not box.fits(dims):
        raise ManifestError(f"box_origin/box_size: box {box.origin}+{box.size} exceeds dims {dims}")
    window = _floats(pairs["window"], "window", 2)
    if not window[0] < window[1]:
        raise ManifestError(f"window: lower bound must be below upper, got {window}")
    try:
        seed = int(pairs["seed"])
    except ValueError as exc:
        raise ManifestError(f"seed: {exc}") from None

    m = CaseManifest(
        case_id=pairs["case_id"],
        seed=seed,
        dims=dims,
        ct=pairs["ct"],
        bone=pairs["bone"],
        defective=pairs["defective"],
        implant=pairs["implant"],
        box=box,
        hu_threshold=_floats(pairs["hu_threshold"], "hu_threshold", 1)[0],
        window=window,
    )
    for key in _VOLUME_KEYS:
        target = m.volume_path(key, path)
        if not target.is_file():
            raise ManifestError(f"{key}: referenced file {target} does not exist")
    return m
