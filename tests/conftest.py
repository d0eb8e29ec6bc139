import io

import pytest

from matchgame.cli import main


@pytest.fixture
def run_cli(capsys, monkeypatch):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(args, stdin_text=""):
        # a text stream over bytes, as the real standard input is
        stdin = io.TextIOWrapper(io.BytesIO(stdin_text.encode()), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    return run
