"""The README's scenario file and library example stay runnable, and its module list current."""

import json
import re
from pathlib import Path

from photondemux.config import scenario_from_mapping, scenario_to_mapping

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def code_block(language: str) -> str:
    blocks = re.findall(rf"```{language}\n(.*?)```", README, flags=re.DOTALL)
    assert len(blocks) == 1, f"expected one {language} block in README.md, found {len(blocks)}"
    return blocks[0]


def test_scenario_example_is_valid_and_complete():
    raw = json.loads(code_block("json"))
    echo = scenario_to_mapping(scenario_from_mapping(raw))
    # the example lists every field; the deadtime is given in seconds
    shown_source = {"herald_deadtime_slots" if k == "herald_deadtime_s" else k for k in raw["source"]}
    assert shown_source == set(echo["source"])
    for section in ("converter", "run", "sweep"):
        assert set(raw[section]) == set(echo[section]), section


def test_library_example_runs(capsys):
    exec(compile(code_block("python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 3


def test_module_list_names_every_module():
    listing = README.split("Modules, bottom up:", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"^- `(\w+)`:", listing, flags=re.MULTILINE)
    files = {path.stem for path in (ROOT / "src" / "photondemux").glob("*.py")} - {"__init__"}
    assert sorted(named) == sorted(files)
