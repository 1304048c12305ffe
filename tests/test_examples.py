"""The example scripts run end-to-end (subprocess smoke tests)."""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: float = 240.0) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "HCPerf" in out and "EDF" in out
        assert "miss ratio" in out

    def test_custom_scheduler(self):
        out = run_example("custom_scheduler.py")
        assert "LLF" in out and "HCPerf *" in out

    def test_car_following_demo_short(self):
        out = run_example("car_following_demo.py", "--horizon", "15")
        assert "Speed tracking error" in out

    def test_all_examples_exist_and_documented(self):
        scripts = sorted(EXAMPLES.glob("*.py"))
        assert len(scripts) >= 5
        for script in scripts:
            head = script.read_text().split('"""')
            assert len(head) >= 2, f"{script.name} missing module docstring"
            assert "Run:" in head[1], f"{script.name} docstring missing run hint"
