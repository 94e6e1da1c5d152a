"""Smoke coverage for the runnable examples.

Every example must at least compile; the two fastest are executed end
to end so the documented user journey stays green.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[1] / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


class TestExamplesCompile:
    def test_examples_exist(self):
        names = {p.name for p in ALL_EXAMPLES}
        assert {
            "quickstart.py",
            "video_marketplace.py",
            "traffic_data_caching.py",
            "capacity_constrained_caching.py",
            "breaking_news_cycle.py",
            "heterogeneous_edge.py",
            "decision_support.py",
        } <= names

    @pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
    def test_compiles(self, path):
        compile(path.read_text(encoding="utf-8"), str(path), "exec")

    @pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
    def test_has_main_guard(self, path):
        text = path.read_text(encoding="utf-8")
        assert '__name__ == "__main__"' in text
        assert text.lstrip().startswith('"""'), "examples start with a docstring"


class TestExamplesRun:
    @pytest.mark.parametrize(
        "name", ["quickstart.py", "heterogeneous_edge.py"]
    )
    def test_runs_clean(self, name):
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / name)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip(), "example produced no output"
