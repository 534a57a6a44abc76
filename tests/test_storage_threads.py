"""Thread-safety hammer for the storage caches (satellite fix).

One store, many same-process threads: the parsed-index one-slot cache in
the file backend and the shared record LRU both get hit concurrently.  Before the locks these raced on
``OrderedDict`` mutation (``move_to_end``/``popitem`` mid-iteration) and
on the segment cache's read-modify-write; the hammer reproduces that
shape and must stay green.
"""

import sys
import threading

from repro import diagnose
from repro.apps.synthetic import make_pingpong
from repro.storage import ExperimentStore

FAST = dict(min_interval=5.0, check_period=0.5, insertion_latency=0.2,
            cost_limit=50.0)

THREADS = 8
ROUNDS = 30


def _seed_record():
    return diagnose(make_pingpong(iterations=40), run_id="seed",
                    pool=None, **FAST)


def _replicas(record, n):
    from repro.storage.records import RunRecord

    out = []
    for i in range(n):
        payload = record.to_dict()
        payload["run_id"] = f"run-{i:03d}"
        out.append(RunRecord.from_dict(payload))
    return out


def _hammer(store, run_ids, errors):
    def reader(seed):
        try:
            for i in range(ROUNDS):
                run_id = run_ids[(seed + i) % len(run_ids)]
                record = store.load(run_id)
                assert record.run_id == run_id
                store.summaries(run_ids=[run_id])
                store.list()
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(i,))
               for i in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)


def test_many_reader_threads_one_store(tmp_path):
    record = _seed_record()
    replicas = _replicas(record, 12)
    store = ExperimentStore(tmp_path / "runs",
                            cache_size=4)  # small LRU: constant eviction
    for r in replicas:
        store.save(r)
    errors = []
    _hammer(store, [r.run_id for r in replicas], errors)
    assert errors == []
    # The LRU stayed bounded and coherent under the stampede.
    info = store.cache_info()
    assert info["size"] <= 4
    assert info["hits"] + info["misses"] >= THREADS * ROUNDS


def test_readers_race_writers(tmp_path):
    record = _seed_record()
    replicas = _replicas(record, 8)
    store = ExperimentStore(tmp_path / "runs", cache_size=4)
    for r in replicas:
        store.save(r)
    errors = []
    stop = threading.Event()

    def writer():
        try:
            i = 0
            while not stop.is_set():
                store.save(replicas[i % len(replicas)], overwrite=True)
                i += 1
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    w = threading.Thread(target=writer)
    w.start()
    try:
        _hammer(store, [r.run_id for r in replicas], errors)
    finally:
        stop.set()
        w.join(timeout=120)
    assert errors == []


def test_writer_threads_advance_the_shared_view(tmp_path):
    """Puts from several threads advance the backend's one cached view
    in place (and auto-compaction replaces it) while readers list it:
    no reader may see a view change size under it, and the writers'
    view must end equal to a fresh reader's."""
    replicas = _replicas(_seed_record(), 40)
    store = ExperimentStore(tmp_path / "runs", auto_compact=8)
    errors = []

    def writer(k):
        try:
            for record in replicas[k::4]:
                store.save(record)
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    def reader():
        try:
            for _ in range(ROUNDS):
                metas = store.summaries()
                assert list(metas) == sorted(
                    metas, key=lambda run_id: metas[run_id]["seq"])
                store.info()
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(k,)) for k in range(4)]
    threads += [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sorted(store.list()) == sorted(r.run_id for r in replicas)
    assert store.summaries() == ExperimentStore(tmp_path / "runs").summaries()


def test_close_is_idempotent(tmp_path):
    record = _seed_record()
    store = ExperimentStore(tmp_path / "runs")
    store.save(record)
    store.close()
    store.close()  # pooled stores may be closed twice
