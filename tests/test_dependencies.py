"""The package runs on numpy alone, declares exactly what it imports, and
builds nothing at import.

scipy is a test dependency only (the ring-product test builds its
reference with scipy's public sparse product).  The guard runs in a child
process with ``scipy`` blocked, so an import of it anywhere on the verdict
or report path fails there.  The scan reads every import statement of the
package, so a third-party import that comes back undeclared, or a declared
dependency that nothing imports, fails here.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finslerconn"


def _run(script: str) -> str:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


WITHOUT_SCIPY = """
import dataclasses, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from finslerconn import cli, verify

config = cli.parse_config(cli.default_config_text(), origin="<built-in>")
counts = {
    f.name: 1
    for f in dataclasses.fields(verify.SamplePlan)
    if f.name == "param_sets" or f.name.endswith("_points")
}
plan = dataclasses.replace(config.plan, **counts)
report = verify.run_all(metrics=cli._structures(config), plan=plan)
assert report.passed
F = cli.build_structure(config.metric_entry("drift"), config.dimension)
pack = cli.build_params(config.params_entry("mild"), F, config.plan)
doc = cli.tensor_report(F, pack, verify.sample_points(F, config.plan, 1, "no-scipy"))
assert doc
print(report.digest())
"""


def test_verdict_and_report_run_without_scipy():
    from test_bit_identity import CLEAN_DIGEST

    assert _run(WITHOUT_SCIPY).split() == [CLEAN_DIGEST]


def test_importing_the_package_loads_no_scipy():
    script = "import sys, finslerconn; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _run(script).strip() == "[]"


def test_importing_the_cli_builds_no_ring_and_no_plan():
    # rings, their tables and the call plans of contract and the meets fill
    # lazily, in the run: a process that only starts up pays for none
    script = (
        "import finslerconn.cli\nfrom finslerconn import ad\n"
        "print(len(ad._RINGS), len(ad._PLANS), len(ad._MEETS))"
    )
    assert _run(script).split() == ["0", "0", "0"]


def _third_party_imports() -> set[str]:
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {PACKAGE.name}


def test_runtime_dependencies_are_exactly_the_imported_ones():
    tomllib = pytest.importorskip(
        "tomllib", reason="tomllib, which reads pyproject.toml, is new in Python 3.11"
    )
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9._-]+", req).group().lower() for req in project["dependencies"]}
    assert _third_party_imports() == declared
