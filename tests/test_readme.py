"""README.md's python blocks run as documented: in order, in one namespace,
so a documented name the package no longer has fails here."""
import re
from pathlib import Path

from certunlearn import cli, get_preset

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["eps"] <= 1.0 and namespace["cert"] <= 1.0
    assert namespace["accuracy"] > 0.9


def test_flag_table_matches_the_parser():
    """Each row of the README's subcommand table lists exactly the flags the
    parser gives that subcommand, --config, --out and -h aside."""
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| `([^`]*)` \|$", README.read_text(), flags=re.M)
    sub = next(a for a in cli.build_parser()._actions if a.choices)
    parsed = {name: {flag for action in parser._actions for flag in action.option_strings}
              - {"--config", "--out", "-h", "--help"} for name, parser in sub.choices.items()}
    assert {name: set(flags.split()) for name, flags in rows} == parsed


def test_trial_memory_figures_match_the_mnist38_shape():
    """The run-memory paragraph's MB figure is n*d*8 bytes of the mnist38
    training matrix, rounded to whole MB."""
    paragraph = re.search(r"^A run holds .*?\n\n", README.read_text(), flags=re.M | re.S)
    train_mb, = re.search(r"about (\d+) MB at the\s+mnist38 shape",
                          paragraph.group()).groups()
    preset = get_preset("mnist38")
    assert int(train_mb) == round(preset.n * preset.d * 8 / 1e6)
