"""The example walkthroughs print what their committed transcripts hold.

Each example runs in a subprocess with a fixed hash seed, and its stdout is
compared line by line with ``tests/data/examples/<name>.txt``.  The line that
names where ``product_comparison.py`` wrote its HTML table depends on the
checkout's location, so it is left out on both sides.  A deliberate change to
an example's output updates its transcript in the same change.
``imdb_experiments.py`` is not here: it prints timings.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPTS = Path(__file__).resolve().parent / "data" / "examples"
_HTML_LINE = "HTML comparison table written to "


@pytest.mark.parametrize("name", ["quickstart", "product_comparison", "outdoor_brands"])
def test_example_prints_its_transcript(name):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / f"{name}.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    printed = [line for line in completed.stdout.splitlines() if not line.startswith(_HTML_LINE)]
    expected = (TRANSCRIPTS / f"{name}.txt").read_text(encoding="utf-8").splitlines()
    assert printed == expected
