from pathlib import Path

from pairtune.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    # README's "Library use" block, run as written over a small synthetic split.
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    assert main(["gen-synthetic", "--out", "train.jsonl", "--test-out", "test.jsonl",
                 "--test-fraction", "0.25", "--classes", "4", "--examples-per-class", "20",
                 "--groups", "4", "--seed", "1"]) == EXIT_OK
    capsys.readouterr()
    exec(compile(code, str(README), "exec"), {})
    # The block prints the trained encoder's distance gap on the held-out split.
    assert float(capsys.readouterr().out) > 0.0
