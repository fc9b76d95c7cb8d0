"""README's library example and command-line block run as written."""

import re
import shlex
import shutil
from pathlib import Path

from bipartize import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_command_line_block_runs(tmp_path, monkeypatch):
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.M | re.S).group(1)
    lines = [re.sub(r"\s+#.*$", "", line) for line in block.splitlines()]
    assert lines and all(line.startswith("bipartize ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        if "--dir corpus/" in line:
            # the corpus is the instances the lines above wrote
            (tmp_path / "corpus").mkdir()
            for instance in tmp_path.glob("*.col"):
                shutil.copy(instance, tmp_path / "corpus")
        assert cli.main(shlex.split(line)[1:]) == 0, line
