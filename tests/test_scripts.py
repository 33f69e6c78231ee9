"""The scripts under scripts/ run to completion on small arguments, report
every check as passed and exit 0; a failed check makes them exit 1."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


def test_weight_table():
    proc = run_script("weight_table.py", "4")
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line[:2].strip().isdigit()]
    assert len(rows) == 4 and all(row.endswith("  ok") for row in rows)
    assert "MISMATCH" not in proc.stdout


def test_graph_census():
    proc = run_script("graph_census.py", "2")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert [row.split(":")[0] for row in rows] == ["n=0", "n=1", "n=2"]
    assert all(row.endswith("  ok") for row in rows)


def test_assembly_audit():
    proc = run_script("assembly_audit.py", "heisenberg", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "integral-source operator == hausdorff-source operator: True"
    )


def test_weight_table_mismatch_exits_one(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("weight_table", SCRIPTS / "weight_table.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # a wrong Bernoulli number at m = 2 must turn that row into a MISMATCH
    real = module.bernoulli_number
    monkeypatch.setattr(
        module, "bernoulli_number", lambda m, variant: real(m, variant) + (m == 2)
    )
    monkeypatch.setattr(sys, "argv", ["weight_table.py", "3"])
    assert module.main() == 1
    assert capsys.readouterr().out.count("MISMATCH") == 1
