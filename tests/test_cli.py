"""Tests for the command-line interface (driving main() directly)."""

import pytest

from repro.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def store_with_runs(tmp_path_factory):
    store = tmp_path_factory.mktemp("clistore")
    assert run_cli(
        "diagnose", "tester", "--iterations", 60,
        "--store", store, "--run-id", "t-base",
    ) == 0
    assert run_cli(
        "diagnose", "poisson", "--app-version", "A", "--iterations", 120,
        "--store", store, "--run-id", "pa-base",
    ) == 0
    assert run_cli(
        "diagnose", "poisson", "--app-version", "B", "--iterations", 120,
        "--store", store, "--run-id", "pb-base",
    ) == 0
    return store


class TestDiagnose:
    def test_summary_printed(self, store_with_runs, capsys):
        run_cli("report", "pa-base", "--store", store_with_runs)
        out = capsys.readouterr().out
        assert "pairs tested" in out
        assert "poisson" in out

    def test_threshold_override(self, tmp_path, capsys):
        assert run_cli(
            "diagnose", "tester", "--iterations", 40, "--store", tmp_path,
            "--run-id", "x", "--threshold", "CPUbound=0.5", "--stop-when-done",
        ) == 0
        out = capsys.readouterr().out
        assert "bottlenecks" in out

    def test_unknown_app_fails(self):
        with pytest.raises(SystemExit):
            run_cli("diagnose", "fortnite")

    def test_bad_threshold_fails(self):
        with pytest.raises(SystemExit):
            run_cli("diagnose", "tester", "--threshold", "oops")

    def test_duplicate_run_id_errors(self, store_with_runs, capsys):
        code = run_cli(
            "diagnose", "tester", "--iterations", 40,
            "--store", store_with_runs, "--run-id", "t-base",
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCampaign:
    def test_directed_pipeline(self, tmp_path, capsys):
        assert run_cli(
            "campaign", "tester", "--iterations", 40, "--runs", 2,
            "--directed", "--store", tmp_path / "runs", "--name", "camp",
        ) == 0
        out = capsys.readouterr().out
        assert "stage baseline: 2 runs" in out
        assert "harvested directives" in out
        assert "camp-directed-001" in out
        from repro.storage import ExperimentStore

        assert len(ExperimentStore(tmp_path / "runs")) == 4

    def test_workers_flag(self, tmp_path, capsys):
        assert run_cli(
            "campaign", "tester", "--iterations", 40, "--runs", 2,
            "--workers", 2,
        ) == 0
        assert "PoolExecutor(workers=2)" in capsys.readouterr().out

    def test_unknown_app_fails(self):
        with pytest.raises(SystemExit):
            run_cli("campaign", "fortnite")


class TestExtractCombineReport:
    def test_extract_to_file(self, store_with_runs, tmp_path):
        out = tmp_path / "a.directives"
        assert run_cli("extract", "pa-base", "--store", store_with_runs, "--out", out) == 0
        text = out.read_text()
        assert "priority high" in text
        assert "prune" in text

    def test_extract_postmortem(self, store_with_runs, tmp_path):
        out = tmp_path / "pm.directives"
        assert run_cli(
            "extract", "pa-base", "--store", store_with_runs,
            "--out", out, "--postmortem",
        ) == 0
        assert "priority high" in out.read_text()

    def test_extract_stdout(self, store_with_runs, capsys):
        assert run_cli("extract", "pa-base", "--store", store_with_runs,
                       "--no-pair-prunes") == 0
        out = capsys.readouterr().out
        assert "priority" in out
        assert "prunepair" not in out

    def test_directed_diagnosis_via_cli(self, store_with_runs, tmp_path, capsys):
        directives = tmp_path / "a.directives"
        run_cli("extract", "pa-base", "--store", store_with_runs, "--out", directives)
        capsys.readouterr()
        assert run_cli(
            "diagnose", "poisson", "--app-version", "A", "--iterations", 120,
            "--store", store_with_runs, "--run-id", "pa-directed",
            "--directives", directives, "--stop-when-done",
        ) == 0
        assert "pa-directed" in capsys.readouterr().out

    def test_combine_union(self, store_with_runs, tmp_path, capsys):
        a = tmp_path / "a.d"
        b = tmp_path / "b.d"
        run_cli("extract", "pa-base", "--store", store_with_runs, "--out", a)
        run_cli("extract", "pb-base", "--store", store_with_runs, "--out", b)
        out = tmp_path / "ab.d"
        assert run_cli("combine", a, b, "--mode", "union", "--out", out) == 0
        assert "priority" in out.read_text()

    def test_report_shg_and_profile(self, store_with_runs, capsys):
        assert run_cli(
            "report", "pa-base", "--store", store_with_runs,
            "--shg", "--true-only", "--depth", 2, "--profile", "--hierarchies",
        ) == 0
        out = capsys.readouterr().out
        assert "[T]" in out
        assert "Profile" in out
        assert "Code" in out

    def test_report_missing_run(self, store_with_runs, capsys):
        assert run_cli("report", "ghost", "--store", store_with_runs) == 2


class TestListAndAutomap:
    def test_list(self, store_with_runs, capsys):
        assert run_cli("list", "--store", store_with_runs) == 0
        out = capsys.readouterr().out
        assert "pa-base" in out and "t-base" in out

    def test_list_filter(self, store_with_runs, capsys):
        assert run_cli("list", "--store", store_with_runs, "--app", "tester") == 0
        out = capsys.readouterr().out
        assert "t-base" in out and "pa-base" not in out

    def test_list_empty(self, tmp_path, capsys):
        assert run_cli("list", "--store", tmp_path) == 0
        assert "no stored runs" in capsys.readouterr().out

    def test_automap(self, store_with_runs, tmp_path, capsys):
        out = tmp_path / "ab.maps"
        assert run_cli(
            "automap", "pa-base", "pb-base", "--store", store_with_runs, "--out", out
        ) == 0
        text = out.read_text()
        assert "map /Code/oned.f /Code/onednb.f" in text

    def test_automap_stdout(self, store_with_runs, capsys):
        assert run_cli("automap", "pa-base", "pb-base", "--store", store_with_runs) == 0
        assert "map /Machine/node00 /Machine/node04" in capsys.readouterr().out


class TestCompareAndHistory:
    def test_compare(self, store_with_runs, capsys):
        assert run_cli("compare", "pa-base", "pb-base", "--store", store_with_runs) == 0
        out = capsys.readouterr().out
        assert "Structural differences" in out
        assert "Bottleneck conclusions" in out

    def test_compare_with_maps(self, store_with_runs, tmp_path, capsys):
        maps = tmp_path / "ab.maps"
        run_cli("automap", "pa-base", "pb-base", "--store", store_with_runs,
                "--out", maps)
        capsys.readouterr()
        assert run_cli("compare", "pa-base", "pb-base", "--store", store_with_runs,
                       "--maps", maps) == 0
        assert "similarity" in capsys.readouterr().out

    def test_history(self, store_with_runs, capsys):
        assert run_cli("history", "/Code/diff.f/diff1d", "--store", store_with_runs,
                       "--activity", "compute", "--app", "poisson") == 0
        out = capsys.readouterr().out
        assert "pa-base" in out and "trend" in out

    def test_history_empty(self, tmp_path, capsys):
        assert run_cli("history", "/Code/x.c", "--store", tmp_path) == 0
        assert "no stored runs" in capsys.readouterr().out


class TestFigures:
    @pytest.mark.parametrize("number", [1, 2, 3])
    def test_figures_render(self, number, capsys):
        assert run_cli("figure", number) == 0
        out = capsys.readouterr().out
        assert f"Figure {number}" in out

    def test_figure_contents(self, capsys):
        run_cli("figure", 1)
        assert "verifya" in capsys.readouterr().out
        run_cli("figure", 3)
        assert "Mappings Used" in capsys.readouterr().out

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            run_cli("figure", 9)


class TestErrorExitCodes:
    """Satellite: one-line stderr messages with distinct exit codes."""

    @pytest.fixture()
    def crash_plan(self, tmp_path):
        import json

        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "seed": 1, "crash_at": {"Poisson:2": 12.0}, "max_virtual_time": 60.0,
        }))
        return path

    def test_simulation_error_exit_4(self, crash_plan, capsys):
        code = run_cli("diagnose", "poisson", "--iterations", 40,
                       "--faults", crash_plan)
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("simulation failed:")
        assert "Traceback" not in err
        assert "--on-failure degrade" in err  # the recovery hint

    def test_on_failure_degrade_exit_0(self, crash_plan, capsys):
        code = run_cli("diagnose", "poisson", "--iterations", 40,
                       "--faults", crash_plan, "--on-failure", "degrade")
        assert code == 0
        out = capsys.readouterr().out
        assert "DEGRADED" in out

    def test_debug_reraises(self, crash_plan):
        from repro.simulator.errors import SimulationError

        with pytest.raises(SimulationError):
            run_cli("--debug", "diagnose", "poisson", "--iterations", 40,
                    "--faults", crash_plan)

    def test_store_corruption_exit_3(self, tmp_path, capsys):
        import json

        store = tmp_path / "runs"
        assert run_cli("diagnose", "tester", "--iterations", 40,
                       "--store", store, "--run-id", "x1") == 0
        path = store / "x1.json"
        data = json.loads(path.read_text())
        data["record"]["pairs_tested"] = 9999
        path.write_text(json.dumps(data))
        capsys.readouterr()
        # The summary-only report answers from the index and never touches
        # the tampered record file; corruption surfaces on the record path.
        assert run_cli("report", "x1", "--store", store) == 0
        code = run_cli("report", "x1", "--store", store, "--profile")
        assert code == 3
        assert "corruption" in capsys.readouterr().err
        assert (store / "quarantine" / "x1.json").exists()

    def test_raw_os_error_exit_2(self, tmp_path, capsys):
        """With ``--no-resilience`` an I/O error surfaces raw, as a
        one-line error, not a traceback."""
        from repro.faults import IOFault, IOFaultPlan
        from repro.faults import io as io_faults
        from repro.storage import ExperimentStore

        ExperimentStore(tmp_path / "runs").close()
        # read[0] is the open's claim-file read; read[1] the index read
        # of ``info()``, which a retry would have absorbed
        plan = IOFaultPlan(faults=(IOFault(op="read", at=1, kind="eio"),))
        with io_faults.injected(plan):
            code = run_cli("store", "stats", "--store", tmp_path / "runs",
                           "--no-resilience")
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: [Errno 5] injected EIO at read[1]")

    @pytest.mark.parametrize("flag,value", [
        ("--retry-attempts", "0"),
        ("--retry-backoff", "-1"),
        ("--retry-deadline", "-5"),
    ])
    def test_bad_retry_flag_is_a_usage_error(self, tmp_path, capsys,
                                             flag, value):
        """A --retry-* value the policy rejects is one line on stderr and
        exit 2, before any store is opened."""
        code = run_cli("store", "stats", "--store", tmp_path / "runs",
                       flag, value)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad --retry-* value: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--pool-size", "0"),
        ("--max-concurrent", "0"),
        ("--slice-events", "0"),
        ("--queue-limit", "-1"),
    ])
    def test_bad_serve_flag_is_a_usage_error(self, monkeypatch, capsys,
                                             flag, value):
        """A numeric ``serve`` flag the service rejects is one line on
        stderr and exit 2, before any port is bound."""
        import repro.server

        def no_serving(*_args, **_kwargs):
            raise AssertionError("serve bound a port with a bad flag")

        monkeypatch.setattr(repro.server, "serve_forever", no_serving)
        code = run_cli("serve", "--port", "0", flag, value)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad serve flag: ")
        assert err.count("\n") == 1

    def test_campaign_error_exit_5(self, capsys):
        code = run_cli("campaign", "tester", "--resume")
        assert code == 5
        assert "needs a store" in capsys.readouterr().err

    def test_missing_fault_plan_exit_2(self, capsys):
        code = run_cli("diagnose", "tester", "--faults", "/nonexistent/plan.json")
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCampaignCli:
    def test_resume_and_store_flags(self, tmp_path, capsys):
        assert run_cli(
            "campaign", "tester", "--iterations", 60, "--runs", 2,
            "--name", "cj", "--store", tmp_path / "runs",
        ) == 0
        capsys.readouterr()
        assert run_cli(
            "campaign", "tester", "--iterations", 60, "--runs", 2,
            "--name", "cj", "--resume", "--store", tmp_path / "runs",
        ) == 0
        out = capsys.readouterr().out
        assert out.count("already in store (complete), skipped") == 2


class TestObservability:
    def test_diagnose_trace_into_store(self, tmp_path, capsys):
        assert run_cli(
            "diagnose", "tester", "--iterations", 40, "--store", tmp_path,
            "--run-id", "traced", "--trace",
        ) == 0
        path = tmp_path / "traces" / "traced.jsonl"
        assert path.is_file()
        assert "trace written" in capsys.readouterr().out
        assert run_cli("trace", "traced", "--store", tmp_path) == 0
        out = capsys.readouterr().out
        assert "Trace timeline" in out
        assert "run-start" in out

    def test_diagnose_trace_explicit_path(self, tmp_path, capsys):
        trace_file = tmp_path / "out.jsonl"
        assert run_cli(
            "diagnose", "tester", "--iterations", 40,
            "--trace", trace_file,
        ) == 0
        assert trace_file.is_file()
        capsys.readouterr()
        assert run_cli("trace", trace_file, "--verbose") == 0
        assert "node-queued" in capsys.readouterr().out

    def test_trace_true_needs_store(self):
        with pytest.raises(SystemExit):
            run_cli("diagnose", "tester", "--iterations", 40, "--trace")

    def test_trace_unknown_run(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("trace", "nonesuch", "--store", tmp_path)

    def test_trace_corrupt_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert run_cli("trace", bad) == 2
        assert "error" in capsys.readouterr().err

    def test_report_metrics_table(self, store_with_runs, capsys):
        assert run_cli(
            "report", "pa-base", "--store", store_with_runs, "--metrics",
        ) == 0
        out = capsys.readouterr().out
        assert "Run metrics" in out
        assert "engine_events" in out

    def test_report_metrics_json(self, store_with_runs, capsys):
        import json as _json

        assert run_cli(
            "report", "pa-base", "--store", store_with_runs,
            "--metrics", "--metrics-format", "json",
        ) == 0
        tail = capsys.readouterr().out.split("\n{", 1)
        metrics = _json.loads("{" + tail[1])
        assert metrics["pairs_instrumented"] > 0

    def test_report_metrics_prometheus(self, store_with_runs, capsys):
        assert run_cli(
            "report", "pa-base", "--store", store_with_runs,
            "--metrics", "--metrics-format", "prom",
        ) == 0
        out = capsys.readouterr().out
        assert '# TYPE repro_run_engine_events gauge' in out
        assert 'run_id="pa-base"' in out


class TestSummaryFastPath:
    """Summary-only CLI paths must not deserialize any record file."""

    @pytest.fixture()
    def count_parses(self, monkeypatch):
        from repro.storage import file_backend

        calls = []
        original = file_backend.read_record_payload

        def counting(path):
            calls.append(path.name)
            return original(path)

        monkeypatch.setattr(file_backend, "read_record_payload", counting)
        return calls

    def test_report_parses_no_record(self, store_with_runs, count_parses, capsys):
        assert run_cli("report", "pa-base", "--store", store_with_runs) == 0
        assert count_parses == []
        out = capsys.readouterr().out
        assert "pairs tested" in out and "poisson" in out

    def test_report_profile_parses_the_record(self, store_with_runs, count_parses):
        assert run_cli(
            "report", "pa-base", "--store", store_with_runs, "--profile",
        ) == 0
        assert count_parses == ["pa-base.json"]

    def test_list_parses_no_record(self, store_with_runs, count_parses, capsys):
        assert run_cli("list", "--store", store_with_runs) == 0
        assert count_parses == []
        assert "pa-base" in capsys.readouterr().out

    def test_trace_header_without_record_parse(self, tmp_path, count_parses, capsys):
        count_parses.clear()
        assert run_cli(
            "diagnose", "tester", "--iterations", 40, "--store", tmp_path,
            "--run-id", "traced", "--trace",
        ) == 0
        capsys.readouterr()
        count_parses.clear()
        assert run_cli("trace", "traced", "--store", tmp_path) == 0
        out = capsys.readouterr().out
        assert "run traced: tester v1, status complete" in out
        assert count_parses == []


class TestReportHeader:
    """``repro report`` prints its run header from the index summary in
    every mode; the record is parsed only for the sections after it."""

    def test_header_identical_with_and_without_profile(self, tmp_path,
                                                       capsys):
        store = tmp_path / "runs"
        assert run_cli("diagnose", "tester", "--iterations", 40,
                       "--store", store, "--run-id", "r1") == 0
        capsys.readouterr()
        assert run_cli("report", "r1", "--store", store) == 0
        plain = capsys.readouterr().out
        assert run_cli("report", "r1", "--store", store, "--profile") == 0
        with_profile = capsys.readouterr().out
        assert plain.startswith("run r1: tester v1, ")
        assert "pairs tested" in plain
        assert with_profile.startswith(plain)
        assert "Profile (fraction of total execution time)" in \
            with_profile[len(plain):]


class TestStoreStats:
    """``store stats`` names what stopped the harvest aggregate and what
    heals it — a trailing delete, and the next save."""

    def test_stale_hint_names_the_cause_and_the_cure(self, tmp_path, capsys):
        from repro.storage import ExperimentStore
        from tests.test_harvest_aggregate import make_run

        store = ExperimentStore(tmp_path / "runs", auto_compact=0)
        for i in range(3):
            store.save(make_run(i))
        store.harvest_evidence()
        store.delete("run-002")

        def stats():
            assert run_cli("store", "stats", "--store", tmp_path / "runs") == 0
            return capsys.readouterr().out

        out = stats()
        assert "0/2" in out
        assert "rescan until the next save" in out and "backfill" not in out
        store.save(make_run(3))
        out = stats()
        assert "harvest fast path" not in out
