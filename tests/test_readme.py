"""The README's library tour runs as a doctest.

Only the fenced python block is run, so the closing fence is not read as
expected output, and a name the tour uses that the package no longer has
fails here.
"""

from __future__ import annotations

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    tour = doctest.DocTestParser().get_doctest(blocks[0], {}, "README",
                                               str(README), 0)
    report = []
    failed, attempted = doctest.DocTestRunner().run(tour, out=report.append)
    assert attempted > 0
    assert failed == 0, "".join(report)
