"""The output digest runs the benchmark's plans through the benchmark's own
helpers; its fixed launches that end early end as they should."""

import importlib.util
from pathlib import Path

import pytest

from jacobiflow import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


# the overflow launch leaves the floats, which numpy reports as a RuntimeWarning
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_early_endings_run_through_the_tool_end_early(tmp_path):
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = tmp_path / "early_endings"
    codes = tool.run_tasks(cli.main, tool.EARLY_ENDINGS, out, tmp_path / "plans")
    assert codes == [3, 3, 3, 3, 3, 4]
    each, _ = tool.digest(out)
    assert sorted(each) == sorted(f"{task['id']}{suffix}" for task in tool.EARLY_ENDINGS
                                  for suffix in (".csv", "_summary.json"))
