"""Pinned outputs of the built-in configuration, bit for bit.

Changes that only make the arithmetic cheaper (skipping products by a
constant, sharing a computed stage between two readers) must leave every
residual unchanged.  These values were recorded before constant factors
left the ring product, at a one-point plan so the whole battery runs in
about a second; a change that moves any residual or any reported value
moves a digest here.
"""

import dataclasses
import hashlib

from finslerconn import cli, verify

CLEAN_DIGEST = "298b71dbc8e393fd1e56c37d9dc28c298bfd9eea4316c5620379f42c4462a2f6"
FUZZ_DIGEST = "da22d614af6aac7c40053fcc3a98dc490bb230227e489a846db67d74dc4caac5"
DRIFT_REPORT_SHA256 = "aea1f902d20dce9236e38cd31596d4a6bb9ba18b822ea05d76d23c95e28c2b7f"


def _builtin_config() -> cli.Config:
    return cli.parse_config(cli.default_config_text(), origin="<built-in>")


def test_one_point_battery_digests_are_pinned():
    config = _builtin_config()
    counts = {
        f.name: 1
        for f in dataclasses.fields(verify.SamplePlan)
        if f.name == "param_sets" or f.name.endswith("_points")
    }
    plan = dataclasses.replace(config.plan, **counts)
    clean = verify.run_all(metrics=cli._structures(config), plan=plan)
    fuzzed = verify.run_all(metrics=cli._structures(config), plan=plan, fuzz=True)
    assert clean.passed and not fuzzed.passed
    assert clean.digest() == CLEAN_DIGEST
    assert fuzzed.digest() == FUZZ_DIGEST


def test_report_text_is_pinned(tmp_path):
    out = tmp_path / "drift.json"
    assert cli.main(["report", "--metric", "drift", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DRIFT_REPORT_SHA256
