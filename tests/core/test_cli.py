"""CLI tests (invoked in-process through repro.cli.main)."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_queries(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "MG1" in out and "MG18" in out and "G9" in out


def test_catalog_verbose(capsys):
    code, out, _ = run_cli(capsys, "catalog", "-v")
    assert code == 0
    assert "avg price per feature" in out


def test_explain_command(capsys):
    code, out, _ = run_cli(capsys, "explain", "MG1")
    assert code == 0
    assert "rapid-analytics plan (3 MR cycles)" in out


def test_run_catalog_query(capsys):
    code, out, _ = run_cli(
        capsys, "run", "G1", "--dataset", "bsbm", "--preset", "tiny", "--limit", "2"
    )
    assert code == 0
    assert "cycles=2" in out
    assert "rows" in out


def test_compare_command(capsys):
    code, out, _ = run_cli(capsys, "compare", "G1", "--preset", "tiny")
    assert code == 0
    for engine in ("hive-naive", "hive-mqo", "rapid-plus", "rapid-analytics"):
        assert engine in out


def test_run_sparql_file(tmp_path, capsys):
    query_file = tmp_path / "query.rq"
    query_file.write_text(
        "PREFIX bsbm: <http://bsbm.example.org/vocabulary/>\n"
        "SELECT ?c (COUNT(?v) AS ?n) { ?v bsbm:country ?c } GROUP BY ?c\n"
    )
    code, out, _ = run_cli(
        capsys, "run", str(query_file), "--dataset", "bsbm", "--preset", "tiny"
    )
    assert code == 0
    assert "rows" in out


def test_generate_and_query_ntriples(tmp_path, capsys):
    data_file = tmp_path / "data.nt"
    code, out, _ = run_cli(capsys, "generate", "bsbm", str(data_file), "--preset", "tiny")
    assert code == 0
    assert "wrote" in out
    assert data_file.exists()

    code, out, _ = run_cli(capsys, "run", "G1", "--data", str(data_file))
    assert code == 0
    assert "cycles=2" in out


def test_run_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "run", "G3", "--preset", "tiny", "--format", "csv"
    )
    assert code == 0
    header = out.splitlines()[0]
    assert set(header.split(",")) == {"f", "cnt", "sum"}
    assert len(out.splitlines()) > 1


def test_stats_command(capsys):
    code, out, _ = run_cli(capsys, "stats", "--dataset", "pubmed", "--preset", "tiny")
    assert code == 0
    assert "multi-valued" in out
    assert "mesh_heading" in out


def test_explain_hive_engine_with_graph(capsys):
    code, out, _ = run_cli(
        capsys, "explain", "G1", "--engine", "hive-naive", "--preset", "tiny"
    )
    assert code == 0
    assert "hive" in out.lower()


def test_explain_rejects_bad_engine():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["explain", "MG1", "--engine", "spark"])


def test_run_verbose_prints_workflow_and_counters(capsys):
    code, out, _ = run_cli(
        capsys, "run", "G1", "--preset", "tiny", "--verbose"
    )
    assert code == 0
    assert "TOTAL:" in out
    assert "counters:" in out
    assert "mr_cycles=" in out


def test_stats_json(capsys):
    code, out, _ = run_cli(
        capsys, "stats", "--dataset", "pubmed", "--preset", "tiny", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "repro-graph-stats/v1.2"
    assert payload["total_triples"] > 0
    assert any("mesh_heading" in prop for prop in payload["properties"])
    multi = [p for p in payload["properties"].values() if p["multi_valued"]]
    assert multi
    assert payload["equivalence_classes"]
    for prop in payload["properties"].values():
        histogram = prop["fanout_histogram"]
        assert sum(histogram.values()) == prop["distinct_subjects"]
        assert sum(int(f) * n for f, n in histogram.items()) == prop["triples"]
        assert prop["max_fanout"] == max(int(f) for f in histogram)
    # Multi-valued properties carry mass at fanout > 1 — the profile now
    # predicts which properties the factorized representation compresses.
    assert any(
        any(int(f) > 1 for f in p["fanout_histogram"])
        for p in payload["properties"].values()
        if p["multi_valued"]
    )


def test_stats_json_matches_describe_totals(capsys):
    code, text_out, _ = run_cli(capsys, "stats", "--dataset", "bsbm", "--preset", "tiny")
    assert code == 0
    code, json_out, _ = run_cli(
        capsys, "stats", "--dataset", "bsbm", "--preset", "tiny", "--json"
    )
    assert code == 0
    payload = json.loads(json_out)
    assert f"{payload['total_triples']} triples" in text_out


def test_run_trace_and_trace_subcommands(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    code, _, err = run_cli(
        capsys,
        "run", "MG1", "--preset", "tiny",
        "--engine", "rapid-analytics", "--trace", str(trace_path),
    )
    assert code == 0
    assert f"wrote trace {trace_path}" in err
    assert trace_path.exists()
    first = json.loads(trace_path.read_text().splitlines()[0])
    assert first == {"type": "header", "schema": "repro-trace/v1",
                     "generator": "repro.obs", "created_at": first["created_at"]}

    code, out, _ = run_cli(capsys, "trace", "summary", str(trace_path))
    assert code == 0
    assert "rapid-analytics" in out
    assert "MG1" in out

    code, out, _ = run_cli(capsys, "trace", "tree", str(trace_path), "--depth", "2")
    assert code == 0
    assert "MG1 [query]" in out
    assert "sim=" in out

    export_path = tmp_path / "run.perfetto.json"
    code, out, _ = run_cli(
        capsys,
        "trace", "export", str(trace_path),
        "--format", "perfetto", "--output", str(export_path), "--check",
    )
    assert code == 0
    chrome = json.loads(export_path.read_text())
    assert chrome["traceEvents"]
    assert chrome["otherData"]["schema"] == "repro-trace/v1"


def test_compare_trace_covers_all_engines(tmp_path, capsys):
    trace_path = tmp_path / "compare.jsonl"
    code, _, _ = run_cli(
        capsys, "compare", "G1", "--preset", "tiny", "--trace", str(trace_path)
    )
    assert code == 0
    engines = {
        json.loads(line)["attrs"]["engine"]
        for line in trace_path.read_text().splitlines()
        if '"kind":"engine"' in line
    }
    assert engines == {"hive-naive", "hive-mqo", "rapid-plus", "rapid-analytics"}


def test_trace_export_to_stdout(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    run_cli(capsys, "run", "G1", "--preset", "tiny", "--trace", str(trace_path))
    code, out, _ = run_cli(capsys, "trace", "export", str(trace_path))
    assert code == 0
    assert json.loads(out)["traceEvents"]


def test_trace_rejects_non_trace_file(tmp_path, capsys):
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text("not json\n")
    code, _, err = run_cli(capsys, "trace", "summary", str(bogus))
    assert code == 1
    assert "error:" in err


def test_unknown_experiment_fails_cleanly(capsys):
    code, _, err = run_cli(capsys, "bench", "figure99")
    assert code == 2
    assert "unknown experiment" in err


def test_missing_file_reports_error(capsys):
    code, _, err = run_cli(capsys, "run", "/nonexistent/query.rq")
    assert code == 1
    assert "error:" in err


def test_parser_rejects_bad_engine():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "G1", "--engine", "spark"])


def test_run_with_faults_and_recovery(capsys):
    """An abort-prone plan plus --recover completes with the fault-free
    rows and prints the recovery breakdown under -v."""
    code, clean_out, _ = run_cli(
        capsys, "run", "G1", "--preset", "tiny", "--format", "csv"
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "run", "G1", "--preset", "tiny", "--format", "csv",
        "--faults", "13,0.1,0,0,1", "--recover", "32",
    )
    assert code == 0
    assert out == clean_out


def test_run_recover_budget_exhaustion_exits_2(capsys):
    """With a one-resubmission budget against a near-certain abort, the
    typed WorkflowAbortedError surfaces as a one-line exit-2 diagnostic."""
    code, _, err = run_cli(
        capsys, "run", "G1", "--preset", "tiny",
        "--faults", "1,0.97,0,0,1", "--recover", "1",
    )
    assert code == 2
    assert "workflow aborted" in err
    assert err.count("\n") == 1  # a single line, not a traceback


def test_run_invalid_recovery_budget_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "run", "G1", "--preset", "tiny", "--recover", "0"
    )
    assert code == 2
    assert "error:" in err


def test_bench_chaos_smoke(capsys, tmp_path):
    out_path = tmp_path / "chaos.json"
    code, out, _ = run_cli(
        capsys, "bench", "table3-bsbm-tiny",
        "--chaos", "seeds=1,rate=0.1", "--output", str(out_path),
    )
    assert code == 0
    assert "chaos soak" in out
    assert "completed: 8 of 8 runs; rows+counters bit-identical to fault-free: 8 of 8" in out
    report = json.loads(out_path.read_text())
    assert report["schema"] == "repro-chaos-soak/v2"
    assert all(
        run["rows_match_baseline"] and run["base_counters_match_baseline"]
        for run in report["runs"]
    )


def test_bench_faults_every_run_aborted_claims_nothing(capsys):
    """Without recovery an abort is an outcome (exit 0), but the table
    must not print an absent value as ``None`` nor call the results
    identical: it says how many runs completed."""
    code, out, err = run_cli(
        capsys, "bench", "table3-bsbm-tiny", "--faults", "7,0.3,0,0,1"
    )
    assert code == 0 and err == ""
    assert "None" not in out
    assert "completed: 0 of 8 runs" in out
    assert "bit-identical to fault-free: 0 of 0 completed" in out


def test_bench_chaos_budget_exhausted_runs_are_aborted_not_drifted(capsys):
    """Runs that ran out of resubmissions aborted; none drifted, and the
    violation says so."""
    code, out, err = run_cli(
        capsys, "bench", "table3-bsbm-tiny", "--chaos", "seeds=2,rate=0.3,budget=1"
    )
    assert code == 1
    assert "completed: 1 of 16 runs" in out
    (violation,) = err.splitlines()
    assert violation.startswith("INVARIANT VIOLATION: runs aborted despite recovery: [")
    assert violation.count("seed") == 15
    assert "drifted" not in err and "not bit-identical" not in err


def test_bench_chaos_golden_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "chaos.json"
    run_cli(
        capsys, "bench", "table3-bsbm-tiny",
        "--chaos", "seeds=1,rate=0.1", "--output", str(out_path),
    )
    code, out, _ = run_cli(
        capsys, "bench", "table3-bsbm-tiny",
        "--chaos", "seeds=1,rate=0.1", "--golden", str(out_path),
    )
    assert code == 0
    assert "chaos golden ok" in out


def test_bench_chaos_bad_spec_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "bench", "table3-bsbm-tiny", "--chaos", "seeds=,rate"
    )
    assert code == 2
    assert "invalid chaos spec" in err


def test_bench_chaos_unknown_experiment(capsys):
    code, _, err = run_cli(capsys, "bench", "nope", "--chaos", "seeds=1,rate=0.1")
    assert code == 2
    assert "unknown chaos experiment" in err


def test_bench_chaos_mutually_exclusive_with_faults(capsys):
    code, _, err = run_cli(
        capsys, "bench", "figure8a", "--chaos", "seeds=1,rate=0.1", "--faults", "7,0.05"
    )
    assert code == 2
    assert "mutually exclusive" in err


def test_serve_smoke(capsys, tmp_path):
    out_path = tmp_path / "serve.json"
    code, out, _ = run_cli(
        capsys, "serve",
        "--workload", "seeds=1,clients=2,mix=chem-overlap,requests=6",
        "--output", str(out_path),
    )
    assert code == 0
    assert "chem-overlap serve workload" in out
    assert "answers bit-identical to cold solo runs: True" in out
    report = json.loads(out_path.read_text())
    assert report["schema"] == "repro-serve-workload/v2"
    assert report["verdicts"]["all_rows_match"] is True
    assert report["verdicts"]["cost_strictly_reduced"] is True
    assert report["verdicts"]["slo_pass"] is True


def test_serve_golden_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "serve.json"
    run_cli(
        capsys, "serve",
        "--workload", "seeds=1,clients=2,mix=chem-overlap,requests=6",
        "--output", str(out_path),
    )
    code, out, _ = run_cli(
        capsys, "serve",
        "--workload", "seeds=1,clients=2,mix=chem-overlap,requests=6",
        "--golden", str(out_path),
    )
    assert code == 0
    assert "serve golden ok" in out


def test_serve_bad_workload_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "serve", "--workload", "seeds=banana")
    assert code == 2
    assert "invalid workload spec" in err
    assert err.count("\n") == 1  # a single line, not a traceback


def test_serve_unknown_mix_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "serve", "--workload", "seeds=1,clients=1,mix=nope"
    )
    assert code == 2
    assert "unknown mix" in err


def test_serve_resilience_ab_smoke(capsys, tmp_path):
    out_path = tmp_path / "resilience.json"
    code, out, _ = run_cli(
        capsys, "serve",
        "--workload", "seeds=1,clients=2,mix=chem-overlap,requests=6",
        "--faults", "11,0.02,0,0,1",
        "--resilience", "default",
        "--output", str(out_path),
    )
    assert code == 0
    assert "resilience A/B" in out
    assert "pooled availability" in out
    report = json.loads(out_path.read_text())
    assert report["schema"] == "repro-serve-resilience/v1"
    assert report["verdicts"]["ok_rows_match_fault_free"] is True


def test_serve_resilience_golden_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "resilience.json"
    argv = (
        "serve",
        "--workload", "seeds=1,clients=2,mix=chem-overlap,requests=6",
        "--faults", "11,0.02,0,0,1",
        "--resilience", "default",
    )
    run_cli(capsys, *argv, "--output", str(out_path))
    code, out, _ = run_cli(capsys, *argv, "--golden", str(out_path))
    assert code == 0
    assert "serve golden ok" in out


def test_serve_faults_alone_runs_the_ab_with_defaults(capsys):
    """--faults without --resilience still runs the A/B (default
    policies on the on arm)."""
    code, out, _ = run_cli(
        capsys, "serve",
        "--workload", "seeds=1,clients=2,mix=chem-overlap,requests=6",
        "--faults", "11,0.02,0,0,1",
    )
    assert code == 0
    assert "resilience A/B" in out


def test_serve_bad_faults_spec_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "serve",
        "--workload", "seeds=1,clients=1,mix=chem-overlap,requests=4",
        "--faults", "banana",
    )
    assert code == 2
    assert "error:" in err
    assert err.count("\n") == 1


def test_serve_bad_resilience_spec_exits_2(capsys):
    for spec in ("retries=-1", "banana=1", "retries"):
        code, _, err = run_cli(
            capsys, "serve",
            "--workload", "seeds=1,clients=1,mix=chem-overlap,requests=4",
            "--faults", "11,0.02",
            "--resilience", spec,
        )
        assert code == 2, spec
        assert "invalid resilience spec" in err
        assert err.count("\n") == 1  # one-line diagnostic, no traceback


def test_serve_resilience_requires_faults(capsys):
    code, _, err = run_cli(
        capsys, "serve",
        "--workload", "seeds=1,clients=1,mix=chem-overlap,requests=4",
        "--resilience", "default",
    )
    assert code == 2
    assert "--resilience requires --faults" in err


def test_serve_metrics_and_faults_are_exclusive(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "serve",
        "--workload", "seeds=1,clients=1,mix=chem-overlap,requests=4",
        "--faults", "11,0.02",
        "--metrics", str(tmp_path / "m.json"),
    )
    assert code == 2
    assert "--metrics" in err


def test_run_bad_faults_spec_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "run", "G1", "--preset", "tiny", "--faults", "1,9.5"
    )
    assert code == 2
    assert "error:" in err
    assert err.count("\n") == 1


def test_bench_faults_bad_spec_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "bench", "table3-bsbm-tiny", "--faults", "banana"
    )
    assert code == 2
    assert "error:" in err
    assert err.count("\n") == 1


def test_run_sharded_csv_matches_unsharded(capsys):
    code, base, _ = run_cli(
        capsys, "run", "MG1", "--preset", "tiny", "--format", "csv"
    )
    assert code == 0
    code, sharded, _ = run_cli(
        capsys,
        "run", "MG1", "--preset", "tiny", "--format", "csv",
        "--shards", "4,min-edge-cut",
    )
    assert code == 0
    assert sharded == base


def test_run_sharded_verbose_shows_per_shard_jobs(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "MG1", "--preset", "tiny", "--verbose", "--shards", "2",
    )
    assert code == 0
    assert "@s0" in out and "@r0" in out
    assert "exchange=" in out


def test_run_sharded_rejects_non_ntga_engine(capsys):
    code, _, err = run_cli(
        capsys,
        "run", "MG1", "--preset", "tiny",
        "--engine", "hive-naive", "--shards", "2",
    )
    assert code == 2
    assert "does not support sharded execution" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command, engine, flags",
    [
        ("explain", "hive-naive", ()),
        ("explain", "hive-naive", ("--run",)),
        ("explain", "reference", ()),
        ("run", "reference", ()),
    ],
)
def test_sharded_non_ntga_engine_exits_2_with_one_line(capsys, command, engine, flags):
    """``run`` and ``explain`` share one config helper: a sharded config
    for an engine that would ignore it is refused before anything runs."""
    code, out, err = run_cli(
        capsys,
        command, "MG1", "--dataset", "bsbm", "--preset", "tiny",
        "--engine", engine, "--shards", "2", *flags,
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: engine {engine!r} does not support sharded execution (shards=2); "
        "sharding is available on: rapid-plus, rapid-analytics\n"
    )


def test_run_bad_shards_spec_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "run", "MG1", "--preset", "tiny", "--shards", "4,metis"
    )
    assert code == 2
    assert "error:" in err
    assert err.count("\n") == 1


def test_explain_sharded_renders_partition_layout(capsys):
    code, out, _ = run_cli(
        capsys,
        "explain", "MG1", "--preset", "tiny", "--shards", "4,min-edge-cut",
    )
    assert code == 0
    assert "sharding (min-edge-cut, 4 shards):" in out
    assert "estimated exchange" in out


def test_explain_sharded_json_carries_sharding_section(capsys):
    code, out, _ = run_cli(
        capsys, "explain", "MG1", "--preset", "tiny", "--shards", "4", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "repro-explain/v1"
    assert report["sharding"]["shards"] == 4
    assert len(report["sharding"]["per_shard"]) == 4


def test_bench_shards_ab_smoke(capsys, tmp_path):
    output = tmp_path / "shard_ab.json"
    code, out, _ = run_cli(
        capsys,
        "bench", "MG1", "--shards", "2,hash", "--output", str(output),
    )
    assert code == 0
    assert "shard A/B (2 shards)" in out
    report = json.loads(output.read_text())
    assert report["schema"] == "repro-shard-ab/v1"
    assert report["verdicts"]["answers_all_match"] is True


def test_bench_bad_shards_spec_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "bench", "mg", "--shards", "banana"
    )
    assert code == 2
    assert "error:" in err
    assert err.count("\n") == 1
