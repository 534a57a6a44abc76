"""The record codec: one compact JSON text per run record.

:func:`encode` writes ``RunRecord.to_dict()`` as it is, except that
``shg_nodes`` (nearly all of a record: the same twelve key names in every
node) becomes columns — one list per node field in node order, every
all-string column (hypothesis, focus, state, priority) as indices into
the record's one string table::

    "shg_nodes": {"strings": [...], "interned": ["hypothesis", ...],
                  "columns": {"id": [...], "hypothesis": [3, 0, ...], ...}}

Nodes of differing key sets or orders (legacy records) add ``"shapes"``,
the distinct key lists, and ``"shape"``, each node's index into them; a
column then holds the values of the nodes carrying its key.
:func:`decode` gives back a dict equal to the one encoded, node keys in
order.  The text is what a store writes and a server sends.
"""

from __future__ import annotations

import json
from itertools import repeat
from typing import List

__all__ = ["decode", "encode"]

_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _columns(nodes: List[dict]) -> dict:
    """The column form of *nodes*, a list of dicts."""
    shapes = dict.fromkeys(map(tuple, nodes))
    keys = next(iter(shapes), ())
    if len(shapes) == 1 and keys:
        columns = dict(zip(keys, zip(*map(dict.values, nodes))))
        form: dict = {}
    else:
        ids = {shape: i for i, shape in enumerate(shapes)}
        columns = {}
        for node in nodes:
            for key, value in node.items():
                columns.setdefault(key, []).append(value)
        form = {"shapes": list(map(list, shapes)),
                "shape": [ids[tuple(node)] for node in nodes]}
    interned = [key for key, column in columns.items()
                if type(column[0]) is str and set(map(type, column)) == {str}]
    strings = dict.fromkeys(s for key in interned for s in columns[key])
    index = dict(zip(strings, range(len(strings))))
    for key in interned:
        columns[key] = list(map(index.__getitem__, columns[key]))
    return dict(form, strings=list(strings), interned=interned,
                columns=columns)


def encode(record: dict) -> str:
    """The codec text of a record dict (``RunRecord.to_dict()``, or a
    legacy payload of any node shape).  Raises :class:`TypeError` when
    ``shg_nodes`` is not a list of dicts."""
    nodes = record.get("shg_nodes")
    if nodes is not None:
        if type(nodes) is not list \
                or not all(type(node) is dict for node in nodes):
            raise TypeError("shg_nodes is not a list of node dicts")
        record = dict(record, shg_nodes=_columns(nodes))
    return _ENCODER.encode(record)


def decode(form: dict) -> dict:
    """The record dict a parsed codec text encodes (a dict whose
    ``shg_nodes`` is not in column form is returned as it is)."""
    nodes = form.get("shg_nodes")
    if not isinstance(nodes, dict):
        return form
    strings = nodes["strings"]
    columns = dict(nodes["columns"])
    for key in nodes["interned"]:
        columns[key] = list(map(strings.__getitem__, columns[key]))
    if "shapes" in nodes:
        values = {key: iter(column) for key, column in columns.items()}
        shapes = nodes["shapes"]
        rows = [{key: next(values[key]) for key in shapes[i]}
                for i in nodes["shape"]]
    else:
        rows = list(map(dict, map(zip, repeat(list(columns)),
                                  zip(*columns.values()))))
    return dict(form, shg_nodes=rows)
