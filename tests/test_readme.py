"""README's entry example runs as written.

The ``## Quickstart`` python block and the mesh block after it execute
in one namespace (the mesh block reuses the quickstart's ``bundle``),
and the summary line the quickstart prints is the one its comment
shows.
"""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(text: str):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_quickstart_and_mesh_blocks_run(capsys):
    text = README.read_text(encoding="utf-8")
    quickstart_section = text[text.index("## Quickstart"):]
    quickstart, mesh = _python_blocks(quickstart_section)[:2]
    assert "protect(" in quickstart and "mesh=True" in mesh

    namespace: dict = {"__name__": "readme"}
    exec(compile(quickstart, "README.md#quickstart", "exec"), namespace)
    exec(compile(mesh, "README.md#mesh", "exec"), namespace)

    out = capsys.readouterr().out
    shown = re.search(r"^print\(result\.report\.summary\(\)\)\n# (.*)$", quickstart, re.M)
    assert shown is not None
    assert shown.group(1) in out.splitlines()
