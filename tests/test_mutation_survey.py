"""tools/mutation_survey.py cleans up after itself when it is stopped."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

SURVEY = Path(__file__).resolve().parents[1] / "tools" / "mutation_survey.py"


def test_a_stopped_survey_removes_its_working_copies(tmp_path):
    # The survey copies the tree into a mutation-survey-* directory under
    # TMPDIR; a SIGTERM as soon as that directory exists must remove it.
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    quiet = subprocess.DEVNULL
    proc = subprocess.Popen([sys.executable, str(SURVEY)], env=env, stdout=quiet, stderr=quiet)
    try:
        for _ in range(6000):  # at most 60 s
            if list(tmp_path.glob("mutation-survey-*")) or proc.poll() is not None:
                break
            time.sleep(0.01)
        assert proc.poll() is None, "the survey ended before it made its copies"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert list(tmp_path.iterdir()) == []
