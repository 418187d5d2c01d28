"""Starter file formats: JSON objects and a plain-text form.

JSON: ``{"order": n, "pairs": [[a, b], ...]}`` — one object, or a list of
such objects for multi-starter files.

Text: a header line ``order n`` followed by one ``a b`` pair per line.
Blank lines and ``#`` comments are ignored.

Both parsers reject length and range violations (via `Pairing`), with
line-anchored messages for the text form.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .errors import StructuralError
from .starters import Pairing


def pairing_to_obj(pairing: Pairing) -> dict:
    return {"order": pairing.modulus, "pairs": [list(p) for p in pairing.pairs]}


def pairing_from_obj(obj: dict, where: str = "starter object") -> Pairing:
    if not isinstance(obj, dict) or "order" not in obj or "pairs" not in obj:
        raise StructuralError(f"{where}: expected an object with 'order' and 'pairs'")
    order = obj["order"]
    pairs = obj["pairs"]
    if not isinstance(pairs, list):
        raise StructuralError(f"{where}: 'pairs' must be a list")
    try:
        return Pairing(order, tuple(tuple(p) for p in pairs))
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"{where}: {exc}") from exc
    except StructuralError as exc:
        raise StructuralError(f"{where}: {exc}") from exc


def dumps_text(pairing: Pairing) -> str:
    lines = [f"order {pairing.modulus}"]
    lines.extend(f"{a} {b}" for a, b in pairing.pairs)
    return "\n".join(lines) + "\n"


def loads_text(text: str, where: str = "<text>") -> Pairing:
    order = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if order is None:
            if fields[0] != "order" or len(fields) != 2:
                raise StructuralError(
                    f"{where}:{lineno}: expected header 'order n', got {raw.strip()!r}")
            try:
                order = int(fields[1])
            except ValueError:
                raise StructuralError(f"{where}:{lineno}: bad order {fields[1]!r}") from None
            continue
        if len(fields) != 2:
            raise StructuralError(
                f"{where}:{lineno}: expected 'a b', got {raw.strip()!r}")
        try:
            pairs.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise StructuralError(f"{where}:{lineno}: non-integer pair {raw.strip()!r}") from None
    if order is None:
        raise StructuralError(f"{where}: missing 'order n' header")
    try:
        return Pairing(order, tuple(pairs))
    except StructuralError as exc:
        raise StructuralError(f"{where}: {exc}") from exc


def load_starters(path: Union[str, Path]) -> list[Pairing]:
    """Load every starter from a JSON or text file (format sniffed)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise StructuralError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StructuralError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
        objs = data if isinstance(data, list) else [data]
        return [pairing_from_obj(obj, where=f"{path}[{i}]") for i, obj in enumerate(objs)]
    return [loads_text(text, where=str(path))]


def load_starter(path: Union[str, Path]) -> Pairing:
    """Load exactly one starter from a file."""
    starters = load_starters(path)
    if len(starters) != 1:
        raise StructuralError(f"{path}: expected exactly one starter, found {len(starters)}")
    return starters[0]


def save_starter(pairing: Pairing, path: Union[str, Path]) -> None:
    """Write one starter; JSON when the suffix is .json, text otherwise."""
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(json.dumps(pairing_to_obj(pairing), indent=1) + "\n")
    else:
        path.write_text(dumps_text(pairing))
