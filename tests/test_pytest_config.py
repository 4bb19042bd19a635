"""The suite's own pytest configuration, run on a probe file in a separate pytest process."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_as_a_failure(tmp_path):
    # under filterwarnings = error, the warning that hypothesis's failing-example report raises
    # on import once ended the whole session with an INTERNALERROR, running no later test
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1].startswith("1 failed, 1 passed in ")
