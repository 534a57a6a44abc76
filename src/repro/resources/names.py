"""Canonical resource-name handling.

Paradyn names every program resource by the unique path from the root of
its resource hierarchy to the node representing the resource, with path
components joined by ``/``.  For example ``/Code/testutil.C/verifyA`` names
the function ``verifyA`` inside module ``testutil.C`` in the ``Code``
hierarchy (paper, Section 2 and Figure 1).

This module centralises parsing, validation, and prefix tests so the rest
of the system can treat resource names as opaque strings while the matching
machinery works on pre-split tuples (tuple-prefix comparison is the hot
path of instrumentation matching).
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

__all__ = [
    "ResourceNameError",
    "split_path",
    "join_path",
    "hierarchy_of",
    "parent_path",
    "is_prefix",
    "depth",
    "validate_path",
]

PathTuple = Tuple[str, ...]


class ResourceNameError(ValueError):
    """Raised for malformed resource names."""


#: Names already validated and split, ``str`` -> parts.  One run names a
#: few hundred resources and repeats each some hundred times (every
#: directive, every focus, every space lookup), so the table turns the
#: parse into a dict hit.  Only well-formed names enter it; cleared
#: wholesale at the cap, so an adversarial stream of distinct names
#: cannot grow memory without bound.  Values are immutable and a lost
#: race between threads stores an equal tuple, so there is no lock.
_SPLIT_TABLE: Dict[str, PathTuple] = {}
_SPLIT_TABLE_MAX = 1 << 16


def _parse_path(path: str) -> PathTuple:
    """The uncached parse behind :func:`split_path`: every check lives
    here, so a rejected name raises the same error however often it is
    asked for."""
    if not isinstance(path, str) or not path.startswith("/"):
        raise ResourceNameError(f"resource name must start with '/': {path!r}")
    body = path[1:]
    if body == "":
        raise ResourceNameError("the bare root '/' does not name a hierarchy")
    parts = tuple(body.split("/"))
    if any(p == "" for p in parts):
        raise ResourceNameError(f"resource name has empty component: {path!r}")
    return parts


def split_path(path: str) -> PathTuple:
    """Split ``/Code/a.c/f`` into ``("Code", "a.c", "f")``.

    Raises :class:`ResourceNameError` for names that do not start with a
    slash or contain empty components.
    """
    if type(path) is not str:
        # Not a table key: a non-str (possibly unhashable) is rejected
        # by the parse, a str subclass is parsed every time.
        return _parse_path(path)
    parts = _SPLIT_TABLE.get(path)
    if parts is None:
        parts = _parse_path(path)
        if len(_SPLIT_TABLE) >= _SPLIT_TABLE_MAX:
            _SPLIT_TABLE.clear()
        _SPLIT_TABLE[path] = parts
    return parts


def join_path(parts: Sequence[str]) -> str:
    """Inverse of :func:`split_path`."""
    if not parts:
        raise ResourceNameError("cannot join an empty component list")
    if any((not p) or ("/" in p) for p in parts):
        raise ResourceNameError(f"invalid components: {parts!r}")
    return "/" + "/".join(parts)


def hierarchy_of(path: str) -> str:
    """Return the hierarchy name (first component) of a resource name."""
    return split_path(path)[0]


def parent_path(path: str) -> str:
    """Return the parent resource's name.

    The parent of a hierarchy root (``/Code``) is an error: roots have no
    parent within the naming scheme.
    """
    parts = split_path(path)
    if len(parts) == 1:
        raise ResourceNameError(f"hierarchy root has no parent: {path!r}")
    return join_path(parts[:-1])


def is_prefix(ancestor: str, descendant: str) -> bool:
    """True if *ancestor* names the same resource as *descendant* or one of
    its ancestors (selection semantics: selecting a node includes all leaf
    descendants, paper Section 2)."""
    a = split_path(ancestor)
    d = split_path(descendant)
    return d[: len(a)] == a


def depth(path: str) -> int:
    """Number of components; a hierarchy root has depth 1."""
    return len(split_path(path))


def validate_path(path: str) -> str:
    """Validate and return *path* unchanged (raises on malformed input)."""
    split_path(path)
    return path


def common_prefix(paths: Iterable[str]) -> str | None:
    """Longest common ancestor of the given resource names, or ``None`` if
    they live in different hierarchies or the iterable is empty."""
    tuples = [split_path(p) for p in paths]
    if not tuples:
        return None
    first = tuples[0]
    n = min(len(t) for t in tuples)
    out = []
    for i in range(n):
        c = first[i]
        if all(t[i] == c for t in tuples):
            out.append(c)
        else:
            break
    if not out:
        return None
    return join_path(out)
