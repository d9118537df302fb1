import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_disk_sweep_prints_every_machine():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "disk_sweep.py"),
         "--lo", "0.7", "--hi", "0.8", "--step", "0.1"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["nu", "mu_2", "lambda_0", "sdfp"]
    assert [row.split()[0] for row in rows] == ["0.700", "0.800"]
    # the order-0 Gram bound of test_disk_order0_matches_order2_moment_when_nonnegative
    assert abs(float(rows[0].split()[2]) - 0.010051) <= 1e-4
