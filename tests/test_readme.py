"""The README's Python API example runs as written, its list of the
package root's names is ``mipmot.__all__``, and its Configuration table
names every config key, so none can drift from the API."""

import dataclasses
import re
from pathlib import Path

import mipmot
from mipmot.config import TrackerConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def python_api_section() -> str:
    """The text of the README's ``### Python API`` section."""
    section = README.read_text(encoding="utf-8").split("\n### Python API\n", 1)[1]
    return re.split(r"\n##+ ", section, maxsplit=1)[0]


def python_api_example() -> str:
    """The code of the ``python`` block in the README's ``### Python API``
    section."""
    (code,) = re.findall(r"```python\n(.*?)```", python_api_section(), re.S)
    return code


def root_names() -> list[str]:
    """The names of the paragraph that follows the one ending "loads
    nothing more:" in the README's ``### Python API`` section, in order."""
    paragraphs = python_api_section().split("\n\n")
    (at,) = [i for i, p in enumerate(paragraphs) if p.endswith("loads nothing more:")]
    return re.findall(r"`(\w+)`", paragraphs[at + 1])


def test_python_api_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(python_api_example(), f"{README}:Python API", "exec"), {"__name__": "readme"})
    # one line for the one tracked frame, then a batch's box shape and a score
    frame_line, batch_line = capsys.readouterr().out.splitlines()
    assert frame_line.startswith("0 ") and batch_line.startswith("(")
    assert (tmp_path / "crossing.dets.txt").stat().st_size > 0


def test_root_names_are_all():
    assert root_names() == mipmot.__all__


def configuration_keys() -> list[str]:
    """The keys named in the first column of the key table of the README's
    ``## Configuration`` section, in table order; a cell such as
    "`w_cls`, `w_aff`, `w_se`" names each of its keys."""
    section = README.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1]
    section = re.split(r"\n## ", section, maxsplit=1)[0]
    rows = section.split("\n| key | default | meaning |\n", 1)[1].splitlines()[1:]
    keys = []
    for row in rows:
        if not row.startswith("|"):
            break
        keys += re.findall(r"`(\w+)`", row.split("|")[1])
    return keys


def test_configuration_table_names_every_key():
    assert configuration_keys() == [f.name for f in dataclasses.fields(TrackerConfig)]
