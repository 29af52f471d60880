"""The symbolic layer runs without numpy, the rank kernel or
multiprocessing: they load at the first matrix and the first pool."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import fatpoints

SCRIPT = """
import sys

import fatpoints as fp

v = fp.classify(fp.parse_system("L(4;2^5)"))
assert v.kind == "MinusOneSpecial" and v.certificate[-1].op == "axiom", v
fp.FamilySpec(7, 13, 5)
fp.PrimeFieldConfig()
fp.EngineConfig()
assert len(fp.load_entries()) == 143
report = fp.run_initial_cases(fp.FamilySpec(7, 13, 5), cfg=fp.PrimeFieldConfig(),
                              enumeration_only=True)
assert report.result == "OK"
fp.classify(fp.parse_system("L(3;)"), fp.EngineConfig(stages=("rank",)))
print(" ".join(m for m in ("numpy", "fatpoints._gauss", "multiprocessing")
               if m in sys.modules))
print(fp.rank([[1, 2], [3, 4]]), "numpy" in sys.modules)
"""


def test_numpy_loads_at_the_first_matrix():
    src = str(Path(fatpoints.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded_before, after_rank = proc.stdout.splitlines()
    assert loaded_before == ""
    assert after_rank == "2 True"
