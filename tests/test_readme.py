"""The README's library tour runs as written."""

import json
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BUNDLED_REPORTS = Path(__file__).resolve().parent / "data" / "bundled_reports"


def test_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["transcript"].chosen == namespace["combined"].transcript.chosen
    assert namespace["audit"].max_gain <= 1e-9


def test_invariants_paragraphs_name_only_recorded_checks():
    """Every check the README's invariants text names is a record in some
    bundled report, so a deleted check cannot stay documented."""
    text = README.read_text()
    section = text[text.index("Every declared invariant is re-checked"):
                   text.index("## Tests")]
    named = set(re.findall(r"(?<![\w/.])(?:space|menu|metric|utility|welfare|mechanism"
                           r"|auction|audit)\.[a-z_]+", section))
    recorded = {check["name"] for path in BUNDLED_REPORTS.glob("*.json")
                for check in json.loads(path.read_text())["invariants"]}
    assert named and sorted(named - recorded) == []
