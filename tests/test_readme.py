"""README's quickstart, the first Python code block of README.md, runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs_and_recovers_objects():
    quickstart = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(quickstart, str(README), "exec"), {"__name__": "__quickstart__"})
    assert "objects recovered" in stdout.getvalue()
