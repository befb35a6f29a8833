"""The CI workflow keeps its scaling probes in tests/probes.py."""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_probes_are_rows_of_the_probe_table():
    # inline Python in the workflow is a probe that no local command runs
    text = WORKFLOW.read_text()
    assert not re.search(r"\bpython3? +-(c\b|\s)", text), "inline Python in the workflow"
    jobs = dict(re.findall(r"^  (\w+):\n((?:    .*\n|\n)*)", text, re.M))
    assert re.search(r"^ +run: python tests/probes\.py$", jobs["smoke"], re.M)
