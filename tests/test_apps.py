"""Tests for the application descriptors and workloads."""

import pytest

from repro.apps import Application, PoissonConfig, VERSIONS, build_poisson, version_maps
from repro.apps.anneal import AnnealConfig, build_anneal
from repro.apps.ocean import OceanConfig, build_ocean
from repro.apps.tester import TesterConfig, build_tester
from repro.core.mapping import ResourceMapper
from repro.metrics.profile import ProfileCollector
from repro.simulator import Activity, Compute

from tests.reference_maps import reference_version_maps


SMALL = PoissonConfig(iterations=40)


class TestApplicationDescriptor:
    def test_missing_program_rejected(self):
        with pytest.raises(ValueError):
            Application(
                name="x", version="1", modules={}, tags=(),
                processes=("p",), placement={"p": "n"}, programs={},
            )

    def test_missing_placement_rejected(self):
        def prog(proc):
            yield Compute(1.0)

        with pytest.raises(ValueError):
            Application(
                name="x", version="1", modules={}, tags=(),
                processes=("p",), placement={}, programs={"p": prog},
            )

    def test_space_contains_all_static_resources(self):
        app = build_poisson("C", SMALL)
        space = app.make_space()
        assert "/Code/exchng2.f/exchng2" in space
        assert "/SyncObject/Message/3/-1" in space
        assert "/SyncObject/Barrier" in space
        assert "/Process/Poisson:4" in space
        assert "/Machine/node08" in space

    def test_engine_runs_app(self):
        app = build_poisson("C", SMALL)
        eng = app.make_engine()
        t = eng.run()
        assert t > 0


class TestPoissonVersions:
    def test_version_process_counts(self):
        assert build_poisson("C", SMALL).n_processes == 4
        assert build_poisson("D", SMALL).n_processes == 8

    def test_unknown_version(self):
        with pytest.raises(ValueError):
            build_poisson("E")

    def test_node_blocks_differ(self):
        a = build_poisson("A", SMALL)
        b = build_poisson("B", SMALL)
        assert set(a.node_names).isdisjoint(b.node_names)

    def test_modules_renamed_between_a_and_b(self):
        a = build_poisson("A", SMALL)
        b = build_poisson("B", SMALL)
        assert "oned.f" in a.modules and "onednb.f" in b.modules
        assert "exchng1.f" in a.modules and "nbexchng.f" in b.modules

    def test_c_and_d_share_code(self):
        c = build_poisson("C", SMALL)
        d = build_poisson("D", SMALL)
        assert dict(c.modules) == dict(d.modules)

    def test_deterministic_runs(self):
        def finish(v):
            app = build_poisson(v, SMALL)
            return app.make_engine().run()

        assert finish("C") == finish("C")

    def test_sync_dominated_profile(self):
        app = build_poisson("C", PoissonConfig(iterations=150))
        eng = app.make_engine()
        pc = ProfileCollector()
        eng.add_sink(pc)
        eng.run()
        prof = pc.profile
        total = prof.total_time()
        sync = prof.totals["sync"] / total
        assert sync > 0.4  # paper: "strongly dominated by synchronization"
        # exchng2 carries more wait than main (45% vs 20% in the paper)
        exch = sum(prof.by_code["/Code/exchng2.f/exchng2"].values())
        main = prof.by_code["/Code/twod.f/main"].get("sync", 0.0)
        assert exch > main

    def test_tag_split_shape(self):
        app = build_poisson("C", PoissonConfig(iterations=150))
        eng = app.make_engine()
        pc = ProfileCollector()
        eng.add_sink(pc)
        eng.run()
        tags = pc.profile.by_tag
        t30 = tags["/SyncObject/Message/3/0"]["sync"]
        t31 = tags["/SyncObject/Message/3/1"]["sync"]
        t3m1 = tags["/SyncObject/Message/3/-1"]["sync"]
        # paper: 27% / 19% / 20% -- the shape is 3/0 largest, others close
        assert t30 > t31
        assert t3m1 > t31

    def test_late_processes_wait_more(self):
        app = build_poisson("C", PoissonConfig(iterations=150))
        eng = app.make_engine()
        pc = ProfileCollector()
        eng.add_sink(pc)
        eng.run()
        prof = pc.profile
        w = [prof.sync_fraction_by_process(f"/Process/Poisson:{i}") for i in (1, 2, 3, 4)]
        # paper: processes 3 and 4 dominated by wait (81%/86%), 1-2 lower
        assert min(w[2], w[3]) > max(w[0], w[1])

    def test_nonblocking_version_less_exchange_wait(self):
        def exch_wait(v, module, fn):
            app = build_poisson(v, PoissonConfig(iterations=120))
            eng = app.make_engine()
            pc = ProfileCollector()
            eng.add_sink(pc)
            eng.run()
            prof = pc.profile
            return prof.by_code[f"/Code/{module}/{fn}"].get("sync", 0.0) / prof.total_time()

        a = exch_wait("A", "exchng1.f", "exchng1")
        b = exch_wait("B", "nbexchng.f", "nbexchng1")
        assert b < a  # overlap hides exchange waits


class TestVersionMaps:
    def test_figure3_maps_present(self):
        maps = {(m.old, m.new) for m in version_maps("A", "B")}
        assert ("/Code/oned.f", "/Code/onednb.f") in maps
        assert ("/Code/sweep.f/sweep1d", "/Code/nbsweep.f/nbsweep") in maps
        assert ("/Code/exchng1.f/exchng1", "/Code/nbexchng.f/nbexchng1") in maps

    def test_identity_maps_empty(self):
        assert version_maps("C", "C") == []
        assert version_maps("C", "D") == []

    def test_inverse_direction(self):
        fwd = {(m.old, m.new) for m in version_maps("A", "B")}
        rev = {(m.new, m.old) for m in version_maps("B", "A")}
        assert fwd == rev

    def test_tag_family_mapped_a_to_c(self):
        maps = {(m.old, m.new) for m in version_maps("A", "C")}
        assert ("/SyncObject/Message/1", "/SyncObject/Message/3") in maps

    def test_mapped_resources_exist_in_target(self):
        src = build_poisson("A", SMALL)
        dst = build_poisson("B", SMALL)
        maps = version_maps("A", "B", src, dst)
        mapper = ResourceMapper(maps)
        dst_space = dst.make_space()
        for name in src.make_space().names():
            mapped = mapper.map_path(name)
            # everything mapped from A must resolve to a B resource
            assert mapped in dst_space, f"{name} -> {mapped} missing in B"

    @staticmethod
    def machine_subset(src, dst):
        maps = version_maps(src, dst, build_poisson(src, SMALL), build_poisson(dst, SMALL))
        return [m for m in maps if m.old.startswith("/Machine/")]

    def test_machine_maps_positional(self):
        maps = self.machine_subset("A", "B")
        assert len(maps) == 4
        assert maps[0].old == "/Machine/node00" and maps[0].new == "/Machine/node04"

    def test_machine_maps_partial_for_more_nodes(self):
        maps = self.machine_subset("C", "D")
        assert len(maps) == 4  # only the first 4 of D's 8 nodes pair up

    @pytest.mark.parametrize("apps_given", [0, 1, 2], ids=["bare", "src-app", "apps"])
    @pytest.mark.parametrize("src", VERSIONS)
    @pytest.mark.parametrize("dst", VERSIONS)
    def test_equals_hand_tables(self, src, dst, apps_given):
        """Derived maps equal the paper's hand tables as a list: Figure 3
        prints them in this order.  Machines pair only when both apps
        are given."""
        apps = (build_poisson(src, SMALL), build_poisson(dst, SMALL))[:apps_given]
        assert version_maps(src, dst, *apps) == reference_version_maps(src, dst, *apps)


class TestOtherApps:
    def test_ocean_structure(self):
        app = build_ocean(OceanConfig(iterations=30))
        space = app.make_space()
        assert "/Code/halo.f/haloswap" in space
        assert "/SyncObject/Message/5/-1" in space
        assert app.make_engine().run() > 0

    def test_tester_matches_figure1(self):
        app = build_tester(TesterConfig(iterations=20))
        assert set(app.modules) == {"main.c", "testutil.C", "vect.c"}
        assert app.node_names == ["CPU_1", "CPU_2", "CPU_3", "CPU_4"]
        assert app.processes[1] == "Tester:2"
        assert "verifya" in app.modules["testutil.C"]

    def test_anneal_hot_modules(self):
        app = build_anneal(AnnealConfig(iterations=60))
        eng = app.make_engine()
        pc = ProfileCollector()
        eng.add_sink(pc)
        eng.run()
        prof = pc.profile
        total = prof.total_time()
        hot = prof.by_code["/Code/goat/evalmove"].get("compute", 0.0)
        hot += prof.by_code["/Code/partition.c/cutcost"].get("compute", 0.0)
        assert hot / total > 0.7  # figure 2: goat and partition.c true


@pytest.mark.parametrize("name,version", [
    ("poisson", "A"), ("poisson", "B"), ("poisson", "C"), ("poisson", "D"),
    ("ocean", None), ("anneal", None), ("tester", None),
])
def test_negative_iterations_rejected_at_build(name, version):
    """A negative workload length fails while the app is built, as
    NumPy's negative array shape did, instead of reaching a program."""
    from repro.apps.catalog import build_catalog_app

    with pytest.raises(ValueError, match="negative"):
        build_catalog_app(name, version, iterations=-1)


def test_numpy_stays_out_of_the_process():
    """The applications draw their jitter in pure Python: importing the
    package, its CLI and its server and running a diagnosis loads no
    numpy (it is a test-only dependency, the jitter's oracle)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import sys, repro, repro.cli, repro.server\n"
        "from repro.apps import PoissonConfig, build_poisson\n"
        "record = repro.diagnose(build_poisson('A', PoissonConfig(iterations=50)),"
        " pool=None)\n"
        "assert record.true_pairs(), 'diagnosis found nothing'\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
