"""README.md's python blocks run as documented: in order, in one namespace,
so a documented name the package no longer has fails here."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["eps"] <= 1.0 and namespace["cert"] <= 1.0
    assert namespace["accuracy"] > 0.9
