"""Plain-text case manifests tying one prepared case's files together.

Line format is ``key = value``, UTF-8, ``#`` starts a comment line, blank
lines are ignored.  One table, ``_KEYS``, lists the keys in file order with
each value's number type and count, or ``None`` for text; the writer, the
reader and :class:`CaseManifest` all read it.  Several numbers are single
space separated.  The key set is closed: unknown keys are an error, so a
typo cannot silently drop a setting.  Volume paths are stored relative to
the manifest's own directory.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from pathlib import Path

from .grid import BoundsError, Box, _write_atomic

_VOLUME_KEYS = ("ct", "bone", "defective", "implant")
# box_origin and box_size are the box's, every other key is a CaseManifest field
_KEYS: dict[str, tuple[type, int] | None] = {
    "case_id": None,
    "seed": (int, 1),
    "dims": (int, 3),
    **dict.fromkeys(_VOLUME_KEYS),
    "box_origin": (int, 3),
    "box_size": (int, 3),
    "hu_threshold": (float, 1),
    "window": (float, 2),
}


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


# what an id that _bad_case_id rejects is, in the errors of CaseManifest and train.eval_csv
_BAD_CASE_ID = (
    "is empty or holds a comma, a quote, CR or LF, a character UTF-8"
    " cannot encode or another line break, or a blank at an end"
)


@dataclass(frozen=True)
class CaseManifest:
    """One prepared case: where its volumes live and how they were made.

    Construction rejects what :func:`read_manifest` would reject or give back
    changed, so every manifest that constructs survives a write and a read;
    it takes each text field only as a ``str`` and stores each number field as
    ``_KEYS`` types it, in Python ints and floats.
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
        for key, spec in _KEYS.items():
            if spec is None and not isinstance(getattr(self, key), str):
                raise ManifestError(f"{key}: expected text, got {getattr(self, key)!r}")
        if _bad_case_id(self.case_id):
            raise ManifestError(f"case_id: {self.case_id!r} {_BAD_CASE_ID}")
        for key in _VOLUME_KEYS:
            if _bad_value(getattr(self, key)):
                raise ManifestError(
                    f"{key}: volume name {getattr(self, key)!r} is empty, spans more than one line,"
                    " holds a character UTF-8 cannot encode or has a blank at an end"
                )
        for key, spec in _KEYS.items():
            if spec is not None and key in vars(self):
                object.__setattr__(self, key, _coerce(key, getattr(self, key)))
        if not self.box.fits(self.dims):
            raise ManifestError(f"box_origin/box_size: box {self.box.origin}+{self.box.size} exceeds dims {self.dims}")
        if not self.window[0] < self.window[1]:
            raise ManifestError(f"window: lower bound must be below upper, got {self.window}")

    def volume_path(self, key: str, manifest_path: str | Path) -> Path:
        """Resolve one of the stored volume paths against the manifest location."""
        if key not in _VOLUME_KEYS:
            raise ManifestError(f"unknown volume key {key!r}")
        return Path(manifest_path).parent / getattr(self, key)


def _coerce(key: str, value: object) -> int | float | tuple[int | float, ...]:
    """``value`` as the Python number, or tuple of them, that ``_KEYS`` gives ``key``.

    numpy scalars and sequences are taken; a wrong count or type is a :class:`ManifestError`.
    """
    kind, n = _KEYS[key]
    try:
        items = tuple(value) if n > 1 else (value,)
        if len(items) == n and all(isinstance(v, numbers.Integral if kind is int else numbers.Real) for v in items):
            nums = tuple(map(kind, items))
            return nums if n > 1 else nums[0]
    except (TypeError, OverflowError):  # not a sequence, or an integer too large for a float
        pass
    raise ManifestError(f"{key}: expected {n} {'integers' if kind is int else 'numbers'}, got {value!r}")


def _numbers(key: str, text: str) -> int | float | tuple[int | float, ...]:
    """The number, or tuple of them, that a manifest line's text gives ``key``."""
    try:
        nums = tuple(map(_KEYS[key][0], text.split()))
    except ValueError as exc:
        raise ManifestError(f"{key}: {exc}") from None
    return _coerce(key, nums[0] if len(nums) == 1 else nums)


def write_manifest(path: str | Path, m: CaseManifest) -> None:
    values = {**vars(m), "box_origin": m.box.origin, "box_size": m.box.size}
    lines = [f"# case {m.case_id}"]
    for key, spec in _KEYS.items():
        value = values[key]
        if spec is not None:
            value = " ".join(map(repr, value if spec[1] > 1 else (value,)))
        lines.append(f"{key} = {value}")
    _write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_manifest(path: str | Path) -> CaseManifest:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})") from None
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ManifestError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ManifestError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ManifestError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value if _KEYS[key] is None else _numbers(key, value)
    for key in _KEYS:
        if key not in values:
            raise ManifestError(f"missing key {key!r}")

    try:
        box = Box(values.pop("box_origin"), values.pop("box_size"))
    except BoundsError as exc:
        raise ManifestError(str(exc)) from None
    m = CaseManifest(**values, box=box)
    for key in _VOLUME_KEYS:
        target = m.volume_path(key, path)
        if not target.is_file():
            raise ManifestError(f"{key}: referenced file {target} does not exist")
    return m
