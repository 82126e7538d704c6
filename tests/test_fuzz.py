"""Property tests over the game and strategy loaders and the CLI argv.

Every input either runs or is refused: `main` returns 0, 1 or 2 and lets
no exception escape, and a file its loader refuses exits 2 with one line
on stderr.  The examples are derandomized and bounded so the module runs
in a few seconds.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repgames.cli import main
from repgames.games import fixture, load_game, save_game
from repgames.strategy import load_strategy, save_strategy, strategy_fixture

FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.too_slow])


def _saved_lines(save, obj) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.txt"
        save(obj, path)
        return path.read_text().splitlines()


GAME_LINES = _saved_lines(save_game, fixture("chsh"))
STRATEGY_LINES = _saved_lines(save_strategy, strategy_fixture("tsirelson", 1))
TOKENS = ["0", "1", "2", "-1", "0.25", "1/4", "1/0", "3/2", "1.5", "-0.5",
          "nan", "inf", "1e400", "x", "", "0,0", "0,1", "alice", "bob",
          "carol", "povm", "psi"]
JUNK_LINES = ["povm", "povm alice", "povm carol 0 0", "psi", "mu",
              "predicate 1", "x_size", "d 1", "n 2", "# comment", "name"]


@st.composite
def mutated_text(draw, base: list):
    """A saved file with a few tokens replaced, lines dropped or added."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(st.characters(blacklist_categories=("Cs",)),
                            max_size=120))
    lines = [line.split(" ") for line in base]
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("token", "drop", "copy", "junk")))
        if kind == "token":
            j = draw(st.integers(0, len(lines[i]) - 1))
            lines[i][j] = draw(st.sampled_from(TOKENS))
        elif kind == "drop":
            del lines[i]
        elif kind == "copy":
            lines.insert(i, list(lines[i]))
        else:
            lines.insert(i, draw(st.sampled_from(JUNK_LINES)).split(" "))
    return "\n".join(" ".join(line) for line in lines) + "\n"


def _refuse_constant(name: str):
    raise AssertionError(f"report holds {name}, which is not JSON")


def _run(argv: list) -> int:
    """Exit code of main; argparse refuses by SystemExit(2).

    A run that completes prints its report, which must be strict JSON:
    NaN or Infinity in it fails the example.  Every refusal, argparse's
    included, is exactly one line on stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, f"argparse exit {code!r} for {argv}"
    assert code in (0, 1, 2), f"exit {code!r} for {argv}"
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    if code in (0, 1):
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
    return code


def _check_loaded_file(text: str, loader, argv_for):
    """Load the text and run the CLI on it; returns what the loader gave."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_text(text)
        try:
            loaded = loader(path)
        except ValueError:
            loaded = None
        code = _run(argv_for(str(path)))
    if loaded is None:
        assert code == 2    # one line, as `_run` requires of every refusal
    return loaded


@FUZZ
@given(mutated_text(GAME_LINES))
def test_game_files_run_or_exit_2(text):
    _check_loaded_file(text, load_game, lambda p: [
        "run", "values", "--game", p, "--n", "1", "--seeds", "1"])


@FUZZ
@given(mutated_text(STRATEGY_LINES))
def test_strategy_files_run_or_exit_2(text):
    _check_loaded_file(text, load_strategy, lambda p: [
        "run", "reduction", "--strategy", p, "--n", "1", "--C", "none"])


COUNTS = st.sampled_from(["-1", "0", "1", "2", "x", ""])
# a name holding control characters or the Unicode line and paragraph
# separators is quoted in its refusal, which must still be one line
CONTROL_NAME = st.text(st.characters(categories=("Cc", "Zl", "Zp")),
                       min_size=1, max_size=3).map(lambda c: f"no{c}name")
SMALL = st.sampled_from(["-1", "0", "1", "2"])
FLAGS = {
    "--trials": SMALL,
    "--seed": COUNTS,
    "--game": st.sampled_from(["chsh", "asym3", "always_win", "nogame"])
    | CONTROL_NAME,
    "--strategy": st.sampled_from(["tsirelson", "printing", "detprod",
                                   "nostrategy"]) | CONTROL_NAME,
    "--n": SMALL,
    "--C": st.sampled_from(["", "none", "1", "2", "3", "0", "1,2", "auto",
                            "x", "1,,2"]),
    "--side": st.sampled_from(["alice", "bob", "carol"]),
    "--mode": st.sampled_from(["exact", "holenstein", "embezzle",
                               "exact-embezzle", "bogus"]),
    "--max-draws": COUNTS,
    "--dprime": st.sampled_from(["-1", "0", "1", "2", "4"]),
    "--alpha": st.sampled_from(["0", "-1", "0.01", "0.5", "x", "nan",
                                "inf"]),
    "--d": SMALL,
    "--seeds": SMALL,
    "--eps": st.sampled_from(["0", "0.25", "1", "2", "-1", "nan"]),
    "--s": st.sampled_from(["0", "1", "2", "-1"]),
    "--c": st.sampled_from(["0", "1", "-1"]),
    "--log-base": st.sampled_from(["0", "1", "2", "10"]),
    "--n-grid": st.sampled_from(["2^2..2^4", "3", "0", "2^a..2^3",
                                 "2^5..2^2", "", "4,8", "2^-3..2^2"]),
    "--tv": st.sampled_from(["0", "0.1", "0.25", "-0.1", "nan"]),
}
SWEEP = ("--trials", "--seed")
STATE = ("--game", "--strategy", "--n", "--C", "--side")
# each command with the flags it reads; --trials is always kept small
# because a default count would make one example take seconds
COMMANDS = {
    ("verify", "--suite", "matcore"): SWEEP,
    ("verify", "--suite", "entropy"): SWEEP,
    ("verify", "--suite", "all"): SWEEP,
    ("verify", "--suite", "usefulness"): STATE,
    ("verify", "--suite", "skew"): STATE,
    ("verify", "--suite", "xi"): STATE,
    ("verify", "--suite", "sampleability"): STATE,
    ("verify", "--suite", "bogus"): SWEEP + STATE,
    ("run", "values"): ("--game", "--n", "--d", "--seeds"),
    ("run", "reduction"): ("--game", "--strategy", "--n", "--C", "--mode",
                           "--max-draws", "--dprime", "--alpha", "--seed"),
    ("run", "bound"): ("--eps", "--s", "--c", "--log-base", "--n-grid"),
    ("run", "corrsamp"): ("--tv", "--max-draws", "--seed"),
    ("run", "bogus"): ("--n", "--seed"),
}
# argv that every run tries besides the drawn ones: a raw bound past the
# largest double, an n whose fourth root overflows a float, and names
# holding line breaks
EXAMPLES = {
    ("run", "values"): [["--game", "no\nname"], ["--game", "no\u2028name"]],
    ("run", "reduction"): [["--strategy", "no\r\x85name"],
                           ["--strategy", "no\u2029name"]],
    ("run", "bound"): [["--eps", "1e-20"], ["--s", "1e300"], ["--c", "1e300"],
                       ["--s", "1e300", "--c", "1e300"],
                       ["--n-grid", "2^2000"]],
}


@st.composite
def flag_values(draw, names: tuple):
    """Tiny trials plus up to three of the command's other flags."""
    argv = ["--trials", draw(SMALL)]
    for flag in draw(st.lists(st.sampled_from(names), unique=True,
                              max_size=3)):
        if flag != "--trials":
            argv += [flag, draw(FLAGS[flag])]
    return argv


@pytest.mark.parametrize("command", sorted(COMMANDS), ids=" ".join)
def test_cli_argv_never_escapes(command):
    def check(argv):
        _run(list(command) + argv)

    for argv in EXAMPLES.get(command, ()):
        check = example(argv)(check)
    settings(FUZZ, max_examples=25)(given(flag_values(COMMANDS[command]))(
        check))()
