"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.configs import fig2_network
from repro.network import network_to_json


@pytest.fixture
def fig2_json(tmp_path):
    path = tmp_path / "fig2.json"
    network_to_json(fig2_network(), path)
    return str(path)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_generate_and_validate(tmp_path, capsys):
    out = str(tmp_path / "net.json")
    assert main(["generate", "fig2", "-o", out]) == 0
    data = json.loads((tmp_path / "net.json").read_text())
    assert data["name"] == "fig2"
    assert main(["validate", out]) == 0
    stdout = capsys.readouterr().out
    assert "OK" in stdout


def test_generate_random(tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["generate", "random", "-o", out, "--seed", "3", "--vls", "10"]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["virtual_links"]


def test_analyze_prints_bounds_and_stats(fig2_json, capsys):
    assert main(["analyze", fig2_json]) == 0
    out = capsys.readouterr().out
    assert "v1[0]" in out
    assert "Trajectory/WCNC" in out


def test_analyze_top_limits_rows(fig2_json, capsys):
    main(["analyze", fig2_json, "--top", "2"])
    out = capsys.readouterr().out
    assert out.count("[0]") == 2


def test_analyze_serialization_mode(fig2_json, capsys):
    assert main(["analyze", fig2_json, "--serialization", "safe"]) == 0
    safe_out = capsys.readouterr().out
    assert main(["analyze", fig2_json, "--serialization", "paper"]) == 0
    paper_out = capsys.readouterr().out
    assert safe_out != paper_out


def test_simulate_reports_no_violations(fig2_json, capsys):
    assert main(["simulate", fig2_json, "--duration-ms", "20"]) == 0
    out = capsys.readouterr().out
    assert "0 bound violations" in out


def test_experiment_fig3_4(capsys):
    assert main(["experiment", "fig3_4"]) == 0
    out = capsys.readouterr().out
    assert "fig3_4" in out and "40.00" in out


def test_experiment_with_reduced_vls(capsys):
    assert main(["experiment", "table1", "--vls", "60"]) == 0
    out = capsys.readouterr().out
    assert "Trajectory/WCNC" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["experiment", "fig99"])


def test_validate_invalid_network_exits_with_config_code(tmp_path, capsys):
    # wire an ES twice by editing the JSON directly
    net = fig2_network()
    from repro.network import network_to_dict

    data = network_to_dict(net)
    data["virtual_links"] = []
    data["links"].append({"a": "e1", "b": "S2", "rate_mbps": 100.0})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    # the loader itself refuses the second ES link: one-line diagnostic,
    # distinct exit code, no traceback
    from repro.cli import EXIT_CONFIG_ERROR

    assert main(["validate", str(path)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("afdx: error:")
    assert len(err.strip().splitlines()) == 1


def test_analyze_jitter_flag(fig2_json, capsys):
    assert main(["analyze", fig2_json, "--jitter"]) == 0
    out = capsys.readouterr().out
    assert "jitter (us)" in out


def test_experiment_csv_export(tmp_path, capsys):
    csv_path = str(tmp_path / "fig3_4.csv")
    assert main(["experiment", "fig3_4", "--csv", csv_path]) == 0
    content = (tmp_path / "fig3_4.csv").read_text()
    assert content.startswith("VL,")
    assert "v1,272.0,232.0,40.0" in content
    assert "# " in content  # notes preserved as comments


def test_report_command_stdout(fig2_json, capsys):
    assert main(["report", fig2_json]) == 0
    out = capsys.readouterr().out
    assert "Output-port dimensioning" in out
    assert "Method comparison" in out


def test_report_command_to_file(fig2_json, tmp_path, capsys):
    out_path = str(tmp_path / "report.txt")
    assert main(["report", fig2_json, "-o", out_path, "--top", "2"]) == 0
    text = (tmp_path / "report.txt").read_text()
    assert "Top 2 critical paths" in text


def test_unstable_network_exits_with_distinct_code(tmp_path, capsys):
    from repro.cli import EXIT_UNSTABLE
    from repro.network import NetworkBuilder, network_to_json

    builder = (
        NetworkBuilder("unstable").switches("SW").end_systems("a", "d")
        .link("a", "SW").link("SW", "d")
    )
    # 90 VLs at 1 ms BAG x 1500 B saturate the 100 Mbps output port
    for index in range(90):
        builder.virtual_link(
            f"v{index}", source="a", destinations=["d"], bag_ms=1, s_max_bytes=1500
        )
    path = tmp_path / "unstable.json"
    network_to_json(builder.build(validate=False), path)
    assert main(["analyze", str(path)]) == EXIT_UNSTABLE
    err = capsys.readouterr().err
    assert err.startswith("afdx: error:")


def test_analyze_metrics_json_manifest(fig2_json, tmp_path, capsys):
    from repro.obs import validate_manifest

    out = tmp_path / "manifest.json"
    assert main(["analyze", fig2_json, "--metrics-json", str(out)]) == 0
    manifest = json.loads(out.read_text())
    validate_manifest(manifest)
    assert manifest["command"] == "analyze"
    assert manifest["config"]["name"] == "fig2"
    assert manifest["config"]["n_paths"] == manifest["bounds"]["n_paths"] > 0
    # per-phase timings from both analyzers
    nc_spans = {s["name"] for s in manifest["analyzers"]["network_calculus"]["spans"]}
    assert {"netcalc.validate", "netcalc.toposort", "netcalc.propagate"} <= nc_spans
    traj = manifest["analyzers"]["trajectory"]
    assert any(s["name"] == "trajectory.sweep" for s in traj["spans"])
    # sweep-convergence trace, ending stable
    assert traj["sweeps"][0]["sweep"] == 1
    assert traj["sweeps"][-1]["smax_updates"] == 0
    # per-analyzer path counts
    assert traj["counters"]["trajectory.paths_bound"] == manifest["bounds"]["n_paths"]
    assert (
        manifest["analyzers"]["network_calculus"]["counters"]["netcalc.paths_bound"]
        == manifest["bounds"]["n_paths"]
    )


def test_analyze_without_metrics_matches_seed_output(fig2_json, tmp_path, capsys):
    assert main(["analyze", fig2_json]) == 0
    plain = capsys.readouterr().out
    out = tmp_path / "m.json"
    assert main(["analyze", fig2_json, "--metrics-json", str(out)]) == 0
    with_metrics = capsys.readouterr().out
    assert plain == with_metrics  # instrumentation never changes the bounds


def test_simulate_metrics_json(fig2_json, tmp_path, capsys):
    from repro.obs import validate_manifest

    out = tmp_path / "sim.json"
    assert main(["simulate", fig2_json, "--duration-ms", "10", "--metrics-json", str(out)]) == 0
    manifest = json.loads(out.read_text())
    validate_manifest(manifest)
    assert manifest["metrics"]["counters"]["sim.events_processed"] > 0
    assert manifest["metrics"]["timers"]["cli.total"]["count"] == 1


def test_experiment_metrics_json(tmp_path, capsys):
    from repro.obs import validate_manifest

    out = tmp_path / "exp.json"
    assert main(["experiment", "fig3_4", "--metrics-json", str(out)]) == 0
    manifest = json.loads(out.read_text())
    validate_manifest(manifest)
    assert "experiment.fig3_4" in manifest["metrics"]["timers"]


def test_progress_flag_prints_phases(fig2_json, capsys):
    assert main(["analyze", fig2_json, "--progress"]) == 0
    err = capsys.readouterr().err
    assert "netcalc.propagate" in err
    assert "trajectory.sweep" in err


def test_log_level_flag_enables_logging(fig2_json, capsys):
    import logging

    try:
        assert main(["analyze", fig2_json, "--log-level", "debug"]) == 0
        err = capsys.readouterr().err
        assert "repro.trajectory" in err
    finally:
        # drop the handler bound to the captured stream
        root = logging.getLogger("repro")
        root.handlers.clear()
        root.setLevel(logging.NOTSET)
        root.propagate = True


def test_missing_config_file_exits_with_config_code(tmp_path, capsys):
    from repro.cli import EXIT_CONFIG_ERROR

    assert main(["analyze", str(tmp_path / "nope.json")]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("afdx: error: cannot read configuration")
    assert "Traceback" not in err


def test_malformed_json_exits_with_config_code(tmp_path, capsys):
    from repro.cli import EXIT_CONFIG_ERROR

    path = tmp_path / "garbage.json"
    path.write_text("not json")
    assert main(["analyze", str(path)]) == EXIT_CONFIG_ERROR
    assert "malformed JSON" in capsys.readouterr().err


def test_analyze_profile_dumps_pstats(fig2_json, tmp_path, capsys):
    import pstats

    prof = tmp_path / "analyze.pstats"
    assert main(["analyze", fig2_json, "--profile", str(prof)]) == 0
    err = capsys.readouterr().err
    assert "profile written to" in err
    stats = pstats.Stats(str(prof))
    assert stats.total_calls > 0
    names = {func for (_, _, func) in stats.stats}
    assert "analyze" in names  # the analyzers themselves were profiled


def test_analyze_profile_section_in_manifest(fig2_json, tmp_path, capsys):
    from repro.obs import validate_manifest

    prof = tmp_path / "analyze.pstats"
    manifest_path = tmp_path / "manifest.json"
    assert (
        main([
            "analyze", fig2_json,
            "--profile", str(prof),
            "--metrics-json", str(manifest_path),
        ])
        == 0
    )
    manifest = json.loads(manifest_path.read_text())
    validate_manifest(manifest)
    profile = manifest["profile"]
    assert profile["stats_path"] == str(prof)
    assert profile["total_calls"] > 0
    assert profile["total_time_s"] >= 0
    top = profile["top_cumulative"]
    assert 0 < len(top) <= 25
    # descending by cumulative time, entries fully populated
    cums = [entry["cumtime_s"] for entry in top]
    assert cums == sorted(cums, reverse=True)
    assert all(entry["function"] and entry["ncalls"] >= 1 for entry in top)


def test_experiment_profile_flag(tmp_path, capsys):
    prof = tmp_path / "exp.pstats"
    assert main(["experiment", "fig3_4", "--profile", str(prof)]) == 0
    assert prof.exists()
    assert "profile written to" in capsys.readouterr().err


def test_profile_does_not_change_bounds(fig2_json, tmp_path, capsys):
    assert main(["analyze", fig2_json]) == 0
    plain = capsys.readouterr().out
    assert main(["analyze", fig2_json, "--profile", str(tmp_path / "p.pstats")]) == 0
    profiled = capsys.readouterr().out
    assert plain == profiled


# ----------------------------------------------------------------------
# Shared flag groups (the _obs_parent() / _analysis_parent() invariant)
# ----------------------------------------------------------------------


def test_every_subcommand_carries_the_obs_flag_group():
    # a new subcommand registered without parents=[_obs_parent()] would
    # ship without --log-level/--metrics-json/--metrics-prom/--progress/
    # --profile; this walks every subparser so that cannot land silently
    import argparse

    from repro.cli import ANALYSIS_FLAG_DESTS, OBS_FLAG_DESTS

    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert subparsers.choices  # sanity: there are subcommands to check
    # (group, its dests, the subcommands that must inherit it); the
    # analysis group (_analysis_parent()) covers the analyzing commands
    groups = (
        ("obs", OBS_FLAG_DESTS, sorted(subparsers.choices)),
        ("analysis", ANALYSIS_FLAG_DESTS, ["analyze", "explain", "profile", "whatif"]),
    )
    for label, flag_dests, names in groups:
        for name in names:
            dests = {action.dest for action in subparsers.choices[name]._actions}
            missing = set(flag_dests) - dests
            assert not missing, (
                f"subcommand {name!r} lacks {label} flags {sorted(missing)}"
            )


def test_profile_flag_on_simulate_and_whatif(fig2_json, tmp_path, capsys):
    prof = tmp_path / "sim.pstats"
    assert main(["simulate", fig2_json, "--duration-ms", "5", "--profile", str(prof)]) == 0
    assert prof.exists()
    assert "profile written to" in capsys.readouterr().err

    edits = tmp_path / "edits.json"
    edits.write_text(json.dumps({"edits": [{"op": "retime", "vl": "v1", "bag_ms": 4.0}]}))
    prof2 = tmp_path / "whatif.pstats"
    assert main(["whatif", fig2_json, str(edits), "--profile", str(prof2)]) == 0
    assert prof2.exists()


def test_metrics_prom_writes_textfile(fig2_json, tmp_path, capsys):
    prom = tmp_path / "metrics.prom"
    assert main(["analyze", fig2_json, "--metrics-prom", str(prom)]) == 0
    assert "prometheus metrics written to" in capsys.readouterr().err
    text = prom.read_text()
    assert text.startswith("# TYPE repro_")
    assert 'command="analyze"' in text
    assert 'analyzer="trajectory"' in text


def test_metrics_prom_unwritable_path_fails(fig2_json, tmp_path, capsys):
    prom = tmp_path / "missing-dir" / "metrics.prom"
    assert main(["analyze", fig2_json, "--metrics-prom", str(prom)]) == 1
    assert "cannot write prometheus" in capsys.readouterr().err


# ----------------------------------------------------------------------
# afdx profile and --trace (the performance observatory)
# ----------------------------------------------------------------------


def test_profile_text_report_lists_hot_ports(fig2_json, capsys):
    assert main(["profile", fig2_json]) == 0
    out = capsys.readouterr().out
    assert "deterministic work counters:" in out
    assert "top 10 ports by candidate evaluations (trajectory):" in out
    assert "sweep convergence cost curve:" in out
    assert "->" in out  # at least one port label ranked


def test_profile_top_flag_limits_ranking(fig2_json, capsys):
    assert main(["profile", fig2_json, "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert "top 2 ports by candidate evaluations (trajectory):" in out
    hot_section = out.split("candidate evaluations (trajectory):")[1]
    hot_section = hot_section.split("top 2 ports by flow folds")[0]
    ranked = [line for line in hot_section.splitlines() if "->" in line]
    assert len(ranked) <= 2


def test_profile_json_report_schema(fig2_json, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert (
        main(["profile", fig2_json, "--format", "json", "-o", str(out_path)]) == 0
    )
    report = json.loads(out_path.read_text())
    assert report["profile_schema"] == 1
    det = report["deterministic"]
    assert det["work"]["network_calculus"]["ports_analyzed"] > 0
    assert det["work"]["trajectory"]["sweeps"] >= 1
    assert det["hot_ports"]
    assert det["sweep_cost_curve"]
    assert report["config"]["name"] == "fig2"
    assert "profile report written to" in capsys.readouterr().err


def test_profile_deterministic_section_stable_across_runs(fig2_json, capsys):
    canon = []
    for _ in range(2):
        assert main(["profile", fig2_json, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        canon.append(json.dumps(report["deterministic"], sort_keys=True))
    assert canon[0] == canon[1]


def test_trace_flag_writes_valid_chrome_trace(fig2_json, tmp_path):
    from repro.obs import load_chrome_trace

    trace = tmp_path / "trace.json"
    assert main(["analyze", fig2_json, "--trace", str(trace)]) == 0
    doc = load_chrome_trace(trace)  # validates or raises
    spans = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
    assert spans
    assert doc["otherData"]["runs"] == ["run1:analyze"]


def test_trace_flag_merges_across_runs(fig2_json, tmp_path):
    from repro.obs import load_chrome_trace

    trace = tmp_path / "trace.json"
    assert main(["analyze", fig2_json, "--trace", str(trace)]) == 0
    assert main(["profile", fig2_json, "--trace", str(trace)]) == 0
    doc = load_chrome_trace(trace)
    assert doc["otherData"]["runs"] == ["run1:analyze", "run2:profile"]
    pids = {ev["pid"] for ev in doc["traceEvents"]}
    assert len(pids) == 4  # two analyzers per run, fresh lanes per run


def test_trace_unwritable_path_fails(fig2_json, tmp_path, capsys):
    trace = tmp_path / "missing-dir" / "trace.json"
    assert main(["analyze", fig2_json, "--trace", str(trace)]) == 1
    assert "cannot write trace" in capsys.readouterr().err


def test_trace_does_not_change_bounds(fig2_json, tmp_path, capsys):
    assert main(["analyze", fig2_json]) == 0
    plain = capsys.readouterr().out
    assert main(["analyze", fig2_json, "--trace", str(tmp_path / "t.json")]) == 0
    traced = capsys.readouterr().out
    assert plain == traced  # the notice goes to stderr, bounds unchanged
