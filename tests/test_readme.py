"""The README's library quickstart, example config and config reference
hold against the package as it is."""

import json
import re
from pathlib import Path

from adiascat import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_quickstart_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quickstart", "exec"), {})
    # it prints one remainder, nonzero for a driven model
    assert float(capsys.readouterr().out) > 0.0


def test_readme_example_config_validates(tmp_path, capsys):
    text = README.read_text(encoding="utf-8")
    example = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
    path = tmp_path / "example.ini"
    path.write_text(example, encoding="utf-8")
    assert cli.main(["validate", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_readme_config_reference_is_the_key_table():
    # one row per key of cli._KEYS: its default, the flag whose dest names
    # it, and, for a key that one kind alone reads, that kind
    text = README.read_text(encoding="utf-8")
    rows = [[cell.strip() for cell in row] for row in re.findall(
        r"^\| `(\w+)\.(\w+)` \|(.*?)\|(.*?)\|(.*?)\|$", text, re.M)]
    assert {(section, key) for section, key, *_ in rows} == set(cli._KEYS)
    assert len(rows) == len(cli._KEYS) == 24
    for section, key, default, flag, takes in rows:
        want = cli._KEYS[section, key][1]
        assert default == ("required" if want is None else f"`{want}`")
        if flag:
            argv = ["run", "--config", "x.ini", flag.strip("`")]
            args = cli._parser().parse_args(
                argv + ([] if flag == "`--timing`" else ["1"]))
            assert getattr(args, f"{section}_{key}") is not None
        kind = cli._KIND_KEYS.get(key)
        assert (f"read by kind = {kind} only" in takes) == (kind is not None)
