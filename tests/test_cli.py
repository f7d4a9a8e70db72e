"""CLI driver tests: exit-code contract, report files, and determinism
of the numeric payload under worker-count changes.  Runs use --fast
sizes; statistical verdict content is covered by the module tests."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys

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
    assert "got 'bad'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (("simulate", "--paths", "-5"), "'-5'"),
    (("krylov", "--paths", "-5"), "'-5'"),
    (("simulate", "--paths", "0"), "'0'"),
    (("simulate", "--grid", "4,10"), "got 4"),
    (("solve-pde", "--lambda", "-1"), "got -1.0"),
    (("solve-pde", "--lambda", "nan"), "lam must be finite and >= 0, got nan"),
    (("solve-pde", "--lambda", "inf"), "lam must be finite and >= 0, got inf"),
    (("harnack", "--gamma", "nan"), "gamma must be finite and exceed 1, got nan"),
    (("harnack", "--gamma", "inf"), "gamma must be finite and exceed 1, got inf"),
    (("simulate", "--seed", "-1"), "'-1'"),
    (("couple", "--seed", str(2 ** 64)), f"'{2 ** 64}'"),
])
def test_bad_input_exits_1_naming_the_value(capsys, argv, named):
    # a bad flag value is a usage error whose message names that value,
    # never a crash deep in the pipeline or a silent fall-back to a default
    try:
        code = main([argv[0], "--scenario", "trivial-zero", "--fast", *argv[1:]])
    except SystemExit as exc:          # argparse rejects at parse time
        code = exc.code
    err = capsys.readouterr().err
    assert code == 1
    assert named in err.splitlines()[-1]


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
    # 9000 paths are two blocks, so the transformed pair is stepped in two
    # worker processes at once
    for argv in (("full-pipeline", "--scenario", "trivial-zero"),
                 ("couple", "--scenario", "singular-1d", "--paths", "9000")):
        outs = []
        for w in ("1", "3"):
            monkeypatch.setenv("ZVLAB_THREADS", w)
            code, out, _ = run_cli(capsys, *argv, "--seed", "1", "--fast")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


def test_full_pipeline_csv_identical_across_worker_counts(capsys, monkeypatch):
    # 9000 paths are two blocks, so the one plain pass and the couple run
    # that the log-Harnack check reuses both go through the process pool;
    # at 2 and 3 workers the ranges are cut differently
    outs = []
    for w in ("1", "2", "3"):
        monkeypatch.setenv("ZVLAB_THREADS", w)
        code, out, _ = run_cli(capsys, "full-pipeline", "--scenario",
                               "additive-1d", "--paths", "9000", "--seed", "1",
                               "--fast")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_full_pipeline_is_one_pool_call(capsys, monkeypatch):
    # the plain pass and the three coupled runs go to one run_tasks call:
    # two draw groups (the command's seed and the calibration seed), one
    # row range each on two workers, the plain pass in the first group's
    # task
    from zvlab import sde
    calls = []
    run_tasks = sde.run_tasks

    def spy(fn, args_list, workers=None):
        calls.append(len(args_list))
        return run_tasks(fn, args_list, workers)

    monkeypatch.setattr(sde, "run_tasks", spy)
    monkeypatch.setenv("ZVLAB_THREADS", "2")
    code, _, _ = run_cli(capsys, "full-pipeline", "--scenario", "additive-1d",
                         "--paths", "9000", "--seed", "1", "--fast")
    assert code == 0
    assert calls == [2]


def test_command_timing_has_its_own_key(capsys, tmp_path):
    # the whole command is timed as "command", so a single-stage command's
    # stage entry is its own, at most the command's
    code, _, _ = run_cli(capsys, "couple", "--scenario", "additive-1d",
                         "--fast", "--out", str(tmp_path))
    assert code == 0
    timings = json.loads((tmp_path / "report.json").read_text())[0]["timings_s"]
    assert sorted(timings) == ["command", "couple", "ensembles"]
    assert timings["couple"] <= timings["command"]
    assert timings["ensembles"] <= timings["command"]


@pytest.mark.parametrize("command", ["full-pipeline", "harnack"])
def test_report_json_carries_pair_counters(capsys, monkeypatch, tmp_path,
                                           command):
    # each coupled run's counters, summed from its task partials, the
    # Philox lanes it drew and the worker processes it used; the log check
    # reads the couple run, simulated first, and the power run shares its
    # draws.  Two draw groups of 9000 paths on two workers are one task each
    monkeypatch.setenv("ZVLAB_THREADS", "2")
    code, _, _ = run_cli(capsys, command, "--scenario", "additive-1d",
                         "--paths", "9000", "--seed", "1", "--fast",
                         "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())[0]
    metrics = report["metrics"]
    assert "ensembles" in report["timings_s"]
    assert sorted(metrics) == (["couple", "harnack"] if command == "full-pipeline"
                               else ["harnack"])
    assert sorted(metrics["harnack"]) == ["calibration", "log", "power"]
    for c in metrics["harnack"].values():
        assert sorted(c) == ["box_exit_rows", "clip_events", "draws",
                             "nonfinite_rows", "total_events", "trunc_events",
                             "workers"]
        assert c["workers"] == 2
        assert 0 <= c["trunc_events"] <= c["total_events"]
    assert metrics["harnack"]["log"]["draws"] == 9000
    assert metrics["harnack"]["power"]["draws"] == 0
    assert metrics["harnack"]["calibration"]["draws"] == 9000
    if command == "full-pipeline":
        assert metrics["harnack"]["log"] == metrics["couple"]["couple"]
    assert "workers" not in (tmp_path / "report.csv").read_text()


@pytest.mark.parametrize("scenario", ["additive-1d", "trivial-zero"])
def test_full_pipeline_matches_separate_stages(capsys, monkeypatch, scenario):
    # full-pipeline runs each distinct ensemble once, in one run_ensembles
    # call: one plain pass feeds simulate and krylov (one _advance_block
    # per row range, not three; one range at one worker, in this process,
    # where the spy sees it), and the couple, power and calibration runs
    # join it, the log-Harnack check reading the couple run (four
    # ensembles, not six).  Each stage alone makes one call: simulate and
    # krylov a plain pass each, couple its run, harnack its couple, power
    # and calibration runs.  The rows equal the separate stages' rows.  A
    # scenario without declared coupling constants (trivial-zero) has no
    # coupled stages
    from zvlab import cli, sde
    coupled = scenario == "additive-1d"
    common = ("--scenario", scenario, "--fast", "--paths", "3000")
    batches, blocks = [], []
    run_ensembles = sde.run_ensembles
    advance = sde._advance_block

    def spy(ensembles):
        batches.append(len(ensembles))
        return run_ensembles(ensembles)

    monkeypatch.setattr(cli, "run_ensembles", spy)
    rows = []
    for stage in cli.FULL_PIPELINE[:5 if coupled else 3]:
        _, out, _ = run_cli(capsys, stage, *common)
        rows += out.splitlines()[1:]
    # build-transform simulates nothing
    assert batches == ([1, 1, 1, 3] if coupled else [1, 1])
    batches.clear()
    monkeypatch.setenv("ZVLAB_THREADS", "1")
    monkeypatch.setattr(sde, "_advance_block",
                        lambda *a: blocks.append(a[4]) or advance(*a))
    _, out, _ = run_cli(capsys, "full-pipeline", *common)
    assert out.splitlines()[1:] == rows
    assert batches == ([4] if coupled else [1])
    assert blocks == [3000]


def test_every_read_is_an_ensemble():
    # every name a stage reads is one the runner simulates
    from zvlab import cli
    from zvlab.report import RunReport
    from zvlab.scenarios import get_scenario
    args = cli.build_parser().parse_args(
        ["full-pipeline", "--scenario", "additive-1d", "--fast", "--paths", "200"])
    reads = {r for _, rd in cli.STAGES.values() for r in rd}
    rep = RunReport(scenario="additive-1d", seed=1, config={})
    ens = cli._ensembles(rep, get_scenario("additive-1d"), args, reads)
    assert set(ens) == reads
    assert sorted(rep.timings) == ["ensembles"]


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
    # the corrector's L^p-L^q estimate is one info row on a scenario with a
    # singular part, and absent without one.  It runs through the
    # corrector's derivatives, so any change to the discrete operator
    # beyond roundoff moves it off this value
    ratios = [r for r in parse_csv(csv_text) if r["check-id"] == "pde-apriori-ratio"]
    assert len(ratios) == 1 and ratios[0]["verdict"] == "info"
    assert float(ratios[0]["value"]) == pytest.approx(3.39482798843, rel=1e-9)
    code0, out0, _ = run_cli(capsys, "solve-pde", "--scenario", "trivial-zero",
                             "--fast")
    assert code0 == 0
    assert "pde-apriori-ratio" not in {r["check-id"] for r in parse_csv(out0)}
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


@pytest.mark.parametrize("argv, rows", [
    (("harnack", "--scenario", "additive-1d"),
     [f"{kind}-harnack-{f}" for kind in ("power", "log")
      for f in ("f_shift_sin", "f_bump", "f_level")]),
    (("krylov", "--scenario", "singular-1d"), ["krylov-bump-max-over-median"]),
    (("couple", "--scenario", "additive-1d"), ["girsanov-worst-zscore", "moment-lhs"]),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_path_gives_no_verdict(capsys, argv, rows):
    # one path has a nan standard error and, for the bump family, a zero
    # median ratio: nothing stands behind a pass or a fail, and the run
    # says so without a numpy warning (any RuntimeWarning fails the test)
    code, out, _ = run_cli(capsys, *argv, "--fast", "--paths", "1")
    assert code == 3
    by_id = {r["check-id"]: r for r in parse_csv(out)}
    assert [by_id[row]["verdict"] for row in rows] == ["inconclusive"] * len(rows)


VERDICTS = json.loads((pathlib.Path(__file__).parent / "data" / "verdicts.json")
                      .read_text())


def verdict_table(runs):
    """VERDICTS' layout from each of its commands' (exit code, stdout)."""
    return [{"argv": e["argv"], "exit_code": code,
             "verdicts": [[r["check-id"], r["verdict"]] for r in parse_csv(out)]}
            for e, (code, out) in zip(VERDICTS, runs)]


def test_verdict_table(capsys, monkeypatch):
    # the exit code and every (check-id, verdict) row of ten commands, as
    # data/verdicts.json records them: a change that moves the last digits
    # of a cell must keep every verdict
    monkeypatch.setenv("ZVLAB_THREADS", "2")
    runs = [run_cli(capsys, *e["argv"])[:2] for e in VERDICTS]
    assert verdict_table(runs) == VERDICTS


def avx512_targets():
    """numpy's AVX-512 dispatch targets that this host runs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                       # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)
            and (t.startswith("AVX512") or t == "X86_V4")]


NO_AVX512_PROBE = """\
import contextlib, io, json, sys
from zvlab.cli import main
targets, argvs = map(json.loads, sys.argv[1:])
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
runs = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runs.append((main(argv), out.getvalue()))
print(json.dumps([[umath.__cpu_features__[t] for t in targets], runs]))
"""


def test_verdict_table_without_avx512():
    # the same table with numpy's AVX-512 kernels switched off, all ten
    # commands in one process: a verdict must not hang on which SIMD
    # kernel computed a cell
    targets = avx512_targets()
    if not targets:
        pytest.skip("numpy reports no AVX-512 dispatch target on this host")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               ZVLAB_THREADS="2",
               PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", NO_AVX512_PROBE, json.dumps(targets),
         json.dumps([e["argv"] for e in VERDICTS])],
        env=env, check=True, capture_output=True, text=True)
    enabled, runs = json.loads(done.stdout)
    assert not any(enabled), targets
    assert verdict_table(runs) == VERDICTS
