"""Report serialization: CSV numeric payload, JSON mirror, exit codes."""

import json
import math

import pytest

from zvlab.report import (CheckRecord, RunReport, combined_exit_code,
                          csv_payload, json_payload)


def make_report():
    rep = RunReport(scenario="demo", seed=3, config={"seed": 3, "paths": 100})
    rep.add("alpha", 1.0, "pass", threshold=2.0)
    rep.add("beta", 0.3333333333333333, "info", ci_low=0.25, ci_high=0.5)
    rep.timings["stage"] = 1.234
    return rep


def test_verdict_validated():
    with pytest.raises(ValueError, match="verdict"):
        CheckRecord("x", 1.0, "maybe")


def test_csv_payload_format():
    text = csv_payload([make_report()])
    lines = text.splitlines()
    assert lines[0] == ("scenario,check-id,value,ci-low,ci-high,"
                        "threshold,verdict,provenance-tag")
    assert lines[1] == "demo,alpha,1,,,2,pass,sampled"
    # twelve significant digits, empty cells for missing values
    assert lines[2] == "demo,beta,0.333333333333,0.25,0.5,,info,sampled"
    assert "1.234" not in text          # timings never enter the CSV
    rep = make_report()
    rep.add("weird", float("nan"), "info")
    assert "demo,weird,nan,,,,info,sampled" in csv_payload([rep])


def test_json_payload_mirrors_and_adds_timings():
    data = json.loads(json_payload([make_report()]))
    assert len(data) == 1
    rec = data[0]
    assert rec["scenario"] == "demo"
    assert rec["timings_s"] == {"stage": 1.234}
    assert rec["checks"][0]["check_id"] == "alpha"
    assert rec["checks"][1]["ci_low"] == 0.25
    assert len(rec["config_hash"]) == 12


def test_metrics_enter_the_json_only():
    rep = make_report()
    rep.metrics["couple"] = {"couple": {"trunc_events": 7, "workers": 2}}
    assert csv_payload([rep]) == csv_payload([make_report()])
    data = json.loads(json_payload([rep]))[0]
    assert data["metrics"] == {"couple": {"couple": {"trunc_events": 7,
                                                     "workers": 2}}}
    assert json.loads(json_payload([make_report()]))[0]["metrics"] == {}


def test_config_hash_tracks_config():
    a, b = make_report(), make_report()
    assert a.config_hash == b.config_hash
    b.config["paths"] = 200
    assert a.config_hash != b.config_hash


def test_exit_codes():
    rep = make_report()
    assert combined_exit_code([rep]) == 0
    rep.add("soft", 1.0, "inconclusive")
    assert combined_exit_code([rep]) == 3
    rep.add("hard", 1.0, "fail")
    assert combined_exit_code([rep]) == 2          # fail dominates inconclusive
    ok = RunReport(scenario="s", seed=1, config={})
    ok.add("only", 0.0, "pass")
    assert combined_exit_code([ok, rep]) == 2
    assert combined_exit_code([ok]) == 0
