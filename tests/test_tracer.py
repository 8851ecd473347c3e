"""The benchmark tracer still finds every name it patches.

perfbench/tracer.py wraps susyfact functions by name.  A renamed or deleted
function would otherwise only surface when a traced benchmark round runs.
The tracer patches classes and module namespaces, so it runs in a fresh
interpreter.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import susyfact.cli  # noqa: F401  (the cli spans patch this module)
from tracer import SPANS, Tracer


def resolve(module, attr):
    obj = sys.modules[module]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


before = {{(m, a): resolve(m, a) for m, a, _ in SPANS}}
tracer = Tracer()
tracer.install()  # patches the unguarded targets by name, or raises
for (m, a), fn in before.items():
    assert resolve(m, a) is not fn, f"{{m}}.{{a}} was not wrapped"
tracer.uninstall()
for (m, a), fn in before.items():
    assert resolve(m, a) is fn, f"{{m}}.{{a}} was not restored"
print("ok")
"""


def test_tracer_installs_and_uninstalls():
    code = SCRIPT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
