"""The two digests of a full ``check`` on the built-in configuration.

``tests/test_bit_identity.py`` pins the battery at one point per suite;
this pins the ``run_all`` payload that ``finslerconn check`` writes, at the
built-in plan, clean and fuzzed.  A change that only makes the work
cheaper must leave both digests as they are.  Each run takes about 0.2 s.
"""

from finslerconn import cli, verify

CLEAN_DIGEST = "cd594ad66e64bf728f5783e4b191fda8e3c17a7f1202a8a39a5e4955462e3775"
FUZZ_DIGEST = "a066f5966b169aa5868fe67e7d92645644a78fac843ae72a5d56c08c009aa3a6"


def _check(fuzz: bool) -> verify.CheckReport:
    config = cli.parse_config(cli.default_config_text(), origin="<built-in>")
    return verify.run_all(
        metrics=cli._structures(config),
        plan=config.plan,
        tolerances=config.tolerances or None,
        fuzz=fuzz,
    )


def test_the_builtin_check_digest_is_pinned():
    report = _check(fuzz=False)
    assert report.passed
    assert report.digest() == CLEAN_DIGEST


def test_the_builtin_fuzz_check_digest_is_pinned():
    report = _check(fuzz=True)
    assert not report.passed
    assert report.digest() == FUZZ_DIGEST
