"""CLI driver tests: exit-code contract, report files, and determinism
of the numeric payload under worker-count changes.  Runs use --fast
sizes; statistical verdict content is covered by the module tests."""

import csv
import io
import json

import pytest

from zvlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, text
    return rows


def test_list_scenarios(capsys):
    code, out, _ = run_cli(capsys, "list-scenarios")
    assert code == 0
    for name in ("trivial-zero", "singular-1d", "additive-1d"):
        assert name in out


def test_unknown_scenario_exits_1(capsys):
    code, _, err = run_cli(capsys, "simulate", "--scenario", "nope")
    assert code == 1
    assert "additive-1d" in err          # available list shown


def test_bad_grid_usage_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "trivial-zero", "--grid", "bad"])
    assert exc.value.code == 1


def test_full_pipeline_trivial_identity(capsys):
    code, out, _ = run_cli(capsys, "full-pipeline", "--scenario",
                           "trivial-zero", "--seed", "1", "--fast")
    assert code == 0
    rows = parse_csv(out)
    by_id = {r["check-id"]: r for r in rows}
    assert by_id["identity-grad-sup"]["value"] == "0"
    assert by_id["identity-drift-nodes"]["verdict"] == "pass"
    assert all(r["verdict"] in ("pass", "info") for r in rows)


def test_csv_identical_across_worker_counts(capsys, monkeypatch):
    # 9000 paths are two blocks, so the transformed pair's warm-start state
    # is carried on two threads at once
    for argv in (("full-pipeline", "--scenario", "trivial-zero"),
                 ("couple", "--scenario", "singular-1d", "--paths", "9000")):
        outs = []
        for w in ("1", "3"):
            monkeypatch.setenv("ZVLAB_THREADS", w)
            code, out, _ = run_cli(capsys, *argv, "--seed", "1", "--fast")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


def test_out_dir_and_json_format(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "solve-pde", "--scenario", "singular-1d",
                           "--fast", "--out", str(tmp_path))
    assert code == 0
    assert out == ""                     # written to files, not stdout
    csv_text = (tmp_path / "report.csv").read_text()
    assert parse_csv(csv_text)[0]["scenario"] == "singular-1d"
    data = json.loads((tmp_path / "report.json").read_text())
    assert data[0]["scenario"] == "singular-1d"
    assert "solve-pde" in data[0]["timings_s"]
    code2, out2, _ = run_cli(capsys, "solve-pde", "--scenario", "singular-1d",
                             "--fast", "--format", "json")
    assert code2 == 0
    assert json.loads(out2)[0]["config"]["fast"] is True


def test_couple_stage_fast(capsys):
    code, out, _ = run_cli(capsys, "couple", "--scenario", "additive-1d",
                           "--seed", "2", "--fast")
    assert code == 0
    by_id = {r["check-id"]: r for r in parse_csv(out)}
    assert by_id["h5-certificate"]["verdict"] == "pass"
    assert by_id["girsanov-worst-zscore"]["verdict"] == "pass"
    assert float(by_id["moment-lhs"]["value"]) <= float(
        by_id["moment-lhs"]["threshold"])


def test_couple_on_transformed_scenario(capsys):
    code, out, _ = run_cli(capsys, "couple", "--scenario", "singular-1d",
                           "--seed", "2", "--fast")
    assert code == 0
    by_id = {r["check-id"]: r for r in parse_csv(out)}
    assert by_id["coupling-K_T"]["provenance-tag"] == "sampled"
    assert by_id["coalescence-decreasing"]["verdict"] == "pass"


def test_gamma_below_threshold_is_config_error(capsys):
    code, _, err = run_cli(capsys, "harnack", "--scenario", "additive-1d",
                           "--gamma", "4", "--fast")
    assert code == 1
    assert "threshold" in err
