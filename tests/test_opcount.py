"""``scripts/opcount.py``'s counter on small functions: no base is extracted."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("opcount", ROOT / "scripts" / "opcount.py")
opcount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(opcount)


def test_a_fresh_function_counts_alike_on_its_first_session():
    def first(x, y):
        return x

    counts = [opcount.opcodes(first, 0.3, 0.7), opcount.opcodes(first, 0.3, 0.7)]
    assert counts[0] == counts[1] > 0
