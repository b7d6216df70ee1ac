"""The README's examples: the library quick tour and the lift transcript."""

import shlex
from pathlib import Path

from ehrwt.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(marker: str) -> str:
    """The body of the README's fenced code block that contains marker."""
    text = README.read_text(encoding="utf-8")
    at = text.index(marker)
    start = text.index("\n", text.rindex("```", 0, at)) + 1
    return text[start:text.index("```", at)]


def test_quick_tour_prints_its_comments(capsys):
    code = code_block("square = LatticePolytope")
    expected = [line.rsplit("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_lift_transcript_matches_the_command(tmp_path, monkeypatch, capsys):
    # "$ cat segment.in" and its lines, then "$ ehrwt lift ..." and its output
    lines = code_block("$ cat segment.in").splitlines()
    command = next(i for i, line in enumerate(lines) if line.startswith("$ ehrwt "))
    assert lines[0] == "$ cat segment.in"
    (tmp_path / "segment.in").write_text("".join(f"{line}\n" for line in lines[1:command]))
    monkeypatch.chdir(tmp_path)
    assert run(shlex.split(lines[command])[2:]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("".join(f"{line}\n" for line in lines[command + 1:]), "")
