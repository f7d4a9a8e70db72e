"""Run reports: typed check records serialized to CSV and JSON.

The CSV carries only the numeric payload — one row per (scenario, check)
— so that two runs of the same configuration produce byte-identical
files regardless of worker count or wall time.  The JSON mirror adds
timings, per-stage counters and the configuration with its content hash.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

CSV_COLUMNS = ("scenario", "check-id", "value", "ci-low", "ci-high",
               "threshold", "verdict", "provenance-tag")
VERDICTS = ("pass", "fail", "inconclusive", "info")


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    value: float
    verdict: str                    # pass | fail | inconclusive | info
    threshold: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    provenance: str = "sampled"     # sampled | closed-form | identity | fit

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")


@dataclass
class RunReport:
    scenario: str
    seed: int
    config: dict
    checks: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)    # stage -> counters

    def add(self, *args, **kw):
        self.checks.append(CheckRecord(*args, **kw))

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.config, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def exit_code(self) -> int:
        verdicts = {c.verdict for c in self.checks}
        if "fail" in verdicts:
            return 2
        if "inconclusive" in verdicts:
            return 3
        return 0


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return "%.12g" % x


def csv_payload(reports) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for rep in reports:
        for c in rep.checks:
            w.writerow([rep.scenario, c.check_id, _fmt(c.value),
                        _fmt(c.ci_low), _fmt(c.ci_high), _fmt(c.threshold),
                        c.verdict, c.provenance])
    return buf.getvalue()


def json_payload(reports) -> str:
    out = []
    for rep in reports:
        out.append({
            "scenario": rep.scenario,
            "seed": rep.seed,
            "config": rep.config,
            "config_hash": rep.config_hash,
            "checks": [{
                "check_id": c.check_id,
                "value": c.value,
                "ci_low": c.ci_low,
                "ci_high": c.ci_high,
                "threshold": c.threshold,
                "verdict": c.verdict,
                "provenance": c.provenance,
            } for c in rep.checks],
            "timings_s": {k: round(v, 6) for k, v in rep.timings.items()},
            "metrics": rep.metrics,
        })
    return json.dumps(out, indent=2, sort_keys=True, default=str) + "\n"


def combined_exit_code(reports) -> int:
    codes = [rep.exit_code() for rep in reports]
    if 2 in codes:
        return 2
    if 3 in codes:
        return 3
    return 0
