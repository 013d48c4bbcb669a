"""The model-file reader that decoded a whole document to text, kept as the
oracle that ``crowdwise.cli``'s byte reader must agree with.

``parse_document(path)`` gives each field's stripped text and
``parse_numbers(text, path, key)`` its numbers, exactly as ``crowdwise.cli``
read them when it decoded the file (universal newlines, ``str.strip()``,
``str.split``); nothing here is used by the package.
"""

import re
from contextlib import contextmanager

import numpy as np

from crowdwise.errors import ParseError

_BLOCK_CHARS = 1 << 16

_INTEGER_NEGATIVE_ZERO = re.compile(r"(?<![eE])-0(?![0-9.eE])")


@contextmanager
def _opened(path: str):
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from None
    with handle:
        try:
            yield handle
        except UnicodeDecodeError as err:
            byte = err.object[err.start]
            raise ParseError(f"{path}: not valid UTF-8 (byte {byte:#04x})") from None


def read_text(path: str) -> str:
    with _opened(path) as handle:
        handle.reconfigure(newline=None)
        return handle.read()


def _json_parse(block: str) -> np.ndarray | None:
    import orjson

    if any(c in block for c in '"[{tfn'):
        return None
    try:
        numbers = orjson.loads("[" + block + "]")
    except orjson.JSONDecodeError:
        return None
    if not numbers:
        return None
    values = np.fromiter(numbers, dtype=float, count=len(numbers))
    if not values.all() and _INTEGER_NEGATIVE_ZERO.search(block):
        return None
    return values


def parse_numbers(text: str, path: str, key: str) -> np.ndarray:
    if not text:
        return np.empty(0)
    blocks = []
    start = 0
    while start >= 0:
        cut = text.find(",", start + _BLOCK_CHARS)
        block = text[start:] if cut < 0 else text[start:cut]
        values = _json_parse(block)
        if values is None:
            try:
                values = np.fromiter(map(float, block.split(",")), dtype=float)
            except ValueError:
                raise ParseError(
                    f"{path}: field {key!r} is not a list of numbers"
                ) from None
        blocks.append(values)
        start = cut if cut < 0 else cut + 1
    values = np.concatenate(blocks)
    if not np.isfinite(values).all():
        raise ParseError(f"{path}: non-finite values in {key}")
    return values


def parse_document(path: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(
                f"{path} line {line_no}: expected 'key = value', got {stripped!r}"
            )
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in fields:
            raise ParseError(f"{path} line {line_no}: duplicate key {key!r}")
        fields[key] = value.strip()
    return fields
