"""``PAPER_TABLE.md`` is what ``studies/paper.py`` writes from the code as it
stands: a change that moves a printed number must commit the new table."""

import importlib.util
from pathlib import Path

from conftest import ACCEPT_DROPS, ACCEPT_SEED

REPO = Path(__file__).resolve().parents[1]


def test_committed_paper_table_is_current():
    spec = importlib.util.spec_from_file_location("paper", REPO / "studies" / "paper.py")
    paper = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(paper)
    assert paper.TABLE_PATH.read_text(encoding="utf-8") == paper.render(), \
        "PAPER_TABLE.md is stale: regenerate it with python3 studies/paper.py"
    # and it runs at the acceptance scale, which studies/paper.py restates
    assert (paper.SEED, paper.N_DROPS) == (ACCEPT_SEED, ACCEPT_DROPS)
