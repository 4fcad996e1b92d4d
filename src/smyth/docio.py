"""Reading poset documents and exporting powerdomain graphs.

A poset document is a small JSON object: ``n`` (element count),
optional ``labels`` (list of n distinct strings), and ``covers`` (list
of ``[i, j]`` pairs meaning ``i`` below ``j``; any generating relations
are accepted and closed on load).  An optional ``expect`` object pins
fixture expectations so a corrupted file is detected rather than
silently re-verified as some other poset:

    points        list of int lists: every member set, sorted
    point_count   int: number of powerdomain points
    dimension     int: dimension of the powerdomain
    phi_onto      bool: whether every point is principal

A file in which any JSON object repeats a key is refused.

The graph export uses the DOT digraph format, one edge per covering
pair of the powerdomain order, lower point first.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DocumentError, _Value
from .poset import FinitePoset, _is_int, iter_bits

if TYPE_CHECKING:
    from .powerdomain import PowerdomainSpace


_EXPECT_TYPES = {
    "points": ("a list of integer lists", lambda value: isinstance(value, list)
               and all(isinstance(p, list) and all(map(_is_int, p)) for p in value)),
    "point_count": ("an integer", _is_int),
    "dimension": ("an integer", _is_int),
    "phi_onto": ("a boolean", lambda value: isinstance(value, bool)),
}
EXPECT_KEYS = frozenset(_EXPECT_TYPES)


class PosetDocument(_Value):
    """Parsed form of a poset file."""

    _fields = ("n", "labels", "covers", "expect")

    def __init__(
        self,
        n: int,
        labels: tuple[str, ...] | None,
        covers: tuple[tuple[int, int], ...],
        expect: dict | None = None,
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "covers", covers)
        object.__setattr__(self, "expect", expect)

    def to_poset(self) -> FinitePoset:
        return FinitePoset.from_cover_relations(self.n, self.covers, self.labels)

    def to_payload(self) -> dict:
        payload: dict = {"n": self.n, "covers": [list(p) for p in self.covers]}
        if self.labels is not None:
            payload["labels"] = list(self.labels)
        if self.expect is not None:
            payload["expect"] = self.expect
        return payload


def document_from_payload(payload: dict) -> PosetDocument:
    """Validate a decoded JSON object into a PosetDocument."""
    if not isinstance(payload, dict):
        raise DocumentError("a poset document is a JSON object")
    unknown = set(payload) - {"n", "labels", "covers", "expect"}
    if unknown:
        raise DocumentError(f"unknown keys: {sorted(unknown)}")
    n = payload.get("n")
    if not _is_int(n) or not 1 <= n <= 64:
        raise DocumentError("'n' must be an integer between 1 and 64")
    labels = payload.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or len(labels) != n
            or not all(isinstance(s, str) for s in labels)
            or len(set(labels)) != n
        ):
            raise DocumentError("'labels' must be a list of n distinct strings")
        labels = tuple(labels)
    covers_raw = payload.get("covers", [])
    if not isinstance(covers_raw, list):
        raise DocumentError("'covers' must be a list of [i, j] pairs")
    covers = []
    for entry in covers_raw:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(map(_is_int, entry))
        ):
            raise DocumentError(f"bad cover entry: {entry!r}")
        if not all(0 <= v < n for v in entry):
            raise DocumentError(f"cover {entry!r} is out of range for n={n}")
        covers.append((entry[0], entry[1]))
    expect = payload.get("expect")
    if expect is not None:
        if not isinstance(expect, dict) or set(expect) - EXPECT_KEYS:
            raise DocumentError(
                f"'expect' may only contain {sorted(EXPECT_KEYS)}"
            )
        for key, value in expect.items():
            kind, test = _EXPECT_TYPES[key]
            if not test(value):
                raise DocumentError(f"'expect.{key}' must be {kind}")
    return PosetDocument(n, labels, tuple(covers), expect)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object, refused if it repeats a key: ``json.loads``
    would silently keep the last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise DocumentError(f"a JSON object repeats the key {repeated!r}")
    return obj


def load_document(path: str | Path) -> PosetDocument:
    """Read and validate a poset document file; a JSON object that
    repeats a key is refused."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal over the digit limit
        raise DocumentError(f"{path} holds a number too long to read: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError(f"{path} nests too deeply to parse") from exc
    return document_from_payload(payload)


def document_of_poset(poset: FinitePoset) -> PosetDocument:
    return PosetDocument(poset.n, poset.labels, poset.cover_pairs())


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def powerdomain_to_dot(space: PowerdomainSpace) -> str:
    """DOT digraph of the powerdomain order, nodes in brace notation."""
    lines = ["digraph powerdomain {"]
    for index in range(len(space.points)):
        lines.append(f"  n{index} [label={_quote(space.point_label(index))}];")
    for i, j in space.order.cover_pairs():
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def point_lists(space: PowerdomainSpace) -> list[list[int]]:
    """Each point's member set as a sorted index list."""
    return [list(iter_bits(mask)) for mask in space.points]
