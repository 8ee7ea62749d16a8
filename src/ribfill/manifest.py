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

from .grid import BoundsError, Box, _write_atomic

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


def _bad_value(text: str) -> bool:
    """Whether ``text`` cannot be a manifest value that :func:`read_manifest` gives back as written.

    It cannot if it is empty, holds a line break of any kind (CR, LF, or any
    other that ``str.splitlines`` splits at, on which :func:`read_manifest`
    would split it), has a blank at either end (which :func:`read_manifest`
    would strip), or holds a character that UTF-8 cannot encode, such as the
    lone surrogate a file name's undecodable byte becomes on POSIX (which
    :func:`write_manifest` could not write).
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return text.splitlines() != [text] or text != text.strip()


def _bad_case_id(case_id: str) -> bool:
    """Whether ``case_id`` cannot be one plain field of a CSV row that a manifest gives back as written.

    It cannot if :func:`_bad_value` says so or if it holds a comma or a quote.
    """
    return _bad_value(case_id) or any(ch in case_id for ch in ',"')


@dataclass(frozen=True)
class CaseManifest:
    """One prepared case: where its volumes live and how they were made.

    Construction rejects what :func:`read_manifest` would reject or give back
    changed, so every manifest that constructs survives a write and a read.
    """

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
            raise ManifestError(
                f"case_id: {self.case_id!r} is empty or holds a comma, a quote, CR or LF, a character UTF-8"
                " cannot encode or another line break, or a blank at an end"
            )
        for key in _VOLUME_KEYS:
            if _bad_value(getattr(self, key)):
                raise ManifestError(
                    f"{key}: volume name {getattr(self, key)!r} is empty, spans more than one line,"
                    " holds a character UTF-8 cannot encode or has a blank at an end"
                )
        if not self.box.fits(self.dims):
            raise ManifestError(f"box_origin/box_size: box {self.box.origin}+{self.box.size} exceeds dims {self.dims}")
        if not self.window[0] < self.window[1]:
            raise ManifestError(f"window: lower bound must be below upper, got {self.window}")

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
    _write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


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

    try:
        box = Box(_ints(pairs["box_origin"], "box_origin", 3), _ints(pairs["box_size"], "box_size", 3))
    except BoundsError as exc:
        raise ManifestError(str(exc)) from None
    try:
        seed = int(pairs["seed"])
    except ValueError as exc:
        raise ManifestError(f"seed: {exc}") from None

    m = CaseManifest(
        case_id=pairs["case_id"],
        seed=seed,
        dims=_ints(pairs["dims"], "dims", 3),
        ct=pairs["ct"],
        bone=pairs["bone"],
        defective=pairs["defective"],
        implant=pairs["implant"],
        box=box,
        hu_threshold=_floats(pairs["hu_threshold"], "hu_threshold", 1)[0],
        window=_floats(pairs["window"], "window", 2),
    )
    for key in _VOLUME_KEYS:
        target = m.volume_path(key, path)
        if not target.is_file():
            raise ManifestError(f"{key}: referenced file {target} does not exist")
    return m
