"""The README's Python example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # each line ends with a distance from a reference solution
    assert len(lines) == 2
    assert lines[0].startswith("FlowStatus.RESIDUAL_CONVERGED ")
    assert all(float(line.split()[-1]) <= 1e-6 for line in lines)
