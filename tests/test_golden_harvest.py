"""Golden harvest text: what extraction makes of the golden records, frozen.

``tests/golden/harvest_poisson_a_1000.json`` pins the directive text
harvested from the three records of ``test_golden_records.py`` (Poisson A
undirected, A directed, B mapped) — each on its own and all three in
order — under the four ``OPTION_COMBOS`` of ``test_harvest_aggregate.py``,
as a sha256 of ``DirectiveSet.to_text()`` and its line count.  It was
written at the parent of the change that made
``HarvestAggregate.finalize()`` the only extraction route, by
``extract_directives`` over the records themselves (the record-scanning
route that change deleted), so it holds the one route left to the bytes
the deleted one produced.

The same text must come back however the history is handed over: the
records, a ``file`` store (its evidence finalized with no pool in
between), the facade's ``oneshot`` (``pool=None``: a pool of one for the
call) over that store's path, a ``sqlite`` store an older release wrote
(converted when it is opened), a :class:`StorePool`.

A change that moves the harvest on purpose regenerates the fixture with
``PYTHONPATH=src python tests/test_golden_harvest.py``; one that must
not runs that command against the *parent's* ``src`` and checks that
``git diff tests/golden`` is empty.
"""

import dataclasses
import hashlib
import json
import sys
from functools import partial
from pathlib import Path

import pytest

if __name__ == "__main__":  # run as a script: make ``tests`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import repro
from repro.core import extract_directives
from repro.server.pool import StorePool
from repro.storage import ExperimentStore
from tests.test_golden_records import KINDS, runs
from tests.test_harvest_aggregate import OPTION_COMBOS
from tests.test_legacy_stores import lay_down_sqlite

GOLDEN = Path(__file__).parent / "golden" / "harvest_poisson_a_1000.json"
GROUPS = KINDS + ["all"]
ROUTES = ["records", "file", "oneshot", "sqlite", "pool"]


def groups():
    """The golden records, one group per kind plus all three in order
    (run ids made distinct so a group can be saved into one store)."""
    records = {kind: dataclasses.replace(record, run_id=kind)
               for kind, record in runs()[0].items()}
    return {kind: [records[kind]] for kind in KINDS} \
        | {"all": list(records.values())}


def pins(harvest_with):
    """One pin per option combination, from ``harvest_with(**options)``."""
    out = []
    for options in OPTION_COMBOS:
        text = harvest_with(**options).to_text()
        out.append({"options": options,
                    "lines": len(text.splitlines()),
                    "sha256": hashlib.sha256(text.encode()).hexdigest()})
    return out


@pytest.fixture(scope="module")
def want():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """``{group: {route: harvest_with}}`` over the same records."""
    root = tmp_path_factory.mktemp("golden-harvest")
    pool = StorePool()
    out = {}
    for group, records in groups().items():
        store = ExperimentStore(root / f"{group}-file")
        for record in records:
            store.save(record)
        lay_down_sqlite(root / f"{group}-sqlite", records, range(len(records)))
        out[group] = {
            "records": partial(extract_directives, records),
            "file": lambda store=store, **options:
                store.harvest_evidence().finalize(**options),
            "oneshot": partial(repro.harvest, root / f"{group}-file",
                               pool=None),
            "sqlite": partial(repro.harvest, root / f"{group}-sqlite",
                              pool=None),
            "pool": partial(pool.harvest, store),
        }
    yield out
    pool.close()


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("group", GROUPS)
def test_harvest_text_is_golden(sources, want, group, route):
    assert pins(sources[group][route]) == want[group]


def test_golden_binds_real_directives(want):
    """The fixture is not vacuous: the undirected harvest is the 1 422
    directives ``oneshot_cold`` counts, a directed run's is far smaller,
    and every option combination and every group is a different text."""
    for group in GROUPS:
        assert [p["options"] for p in want[group]] == list(OPTION_COMBOS)
        assert want[group][0]["lines"] > 50, group
        assert len({p["sha256"] for p in want[group]}) == len(OPTION_COMBOS)
    assert len({want[g][0]["sha256"] for g in GROUPS}) == len(GROUPS)
    assert want["undirected"][0]["lines"] == 1422
    assert want["directed"][0]["lines"] < want["undirected"][0]["lines"] // 10
    assert want["all"][0]["lines"] >= want["undirected"][0]["lines"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    fixture = {
        group: pins(partial(extract_directives, records))
        for group, records in groups().items()
    }
    GOLDEN.write_text(json.dumps(fixture, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
