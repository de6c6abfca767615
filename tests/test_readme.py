import shlex
from pathlib import Path

from pairtune.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading, language):
    """The first ``language`` code block after README's ``## heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    # README's "Library use" block, run as written over a small synthetic split.
    code = readme_block("Library use", "python")
    monkeypatch.chdir(tmp_path)
    assert main(["gen-synthetic", "--out", "train.jsonl", "--test-out", "test.jsonl",
                 "--test-fraction", "0.25", "--classes", "4", "--examples-per-class", "20",
                 "--groups", "4", "--seed", "1"]) == EXIT_OK
    capsys.readouterr()
    exec(compile(code, str(README), "exec"), {})
    # The block prints the trained encoder's distance gap on the held-out split.
    assert float(capsys.readouterr().out) > 0.0


def test_command_line_usage_block_runs(tmp_path, monkeypatch):
    # README's "Command-line usage" block, each `pairtune ...` command run
    # as written, in order, through the CLI's entry point.
    script = readme_block("Command-line usage", "bash").replace("\\\n", " ")
    commands = [shlex.split(line) for line in script.splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert [argv[0] for argv in commands] == ["pairtune"] * len(commands)
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == EXIT_OK, argv
    for name in ("train.jsonl", "test.jsonl", "vocab.txt", "pairs.tsv", "siamese.ptm", "report.tsv"):
        assert (tmp_path / name).is_file(), name
