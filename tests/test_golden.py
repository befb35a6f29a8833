"""Golden CLI outputs: ``hornitp --output {human,sexpr} solve`` and
``hornitp expand`` must print exactly the recorded stdout and exit with the
recorded code.

Inputs are every ``tests/data/*.chc`` plus the chains stored under
``tests/data/golden/`` (from :func:`generators.chain_clauses`, solvable, and
an unsolvable variant whose query demands ``x >= n``).  The recorded outputs
do not depend on ``PYTHONHASHSEED``; CI runs this file under several seeds.

Regenerate the recordings (only when an output change is intended) with
``PYTHONPATH=src:tests python tests/test_golden.py``.
"""

import json
import pathlib
import sys

import pytest

from hornitp.cli import main

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
MODES = ("human", "sexpr")
CHAIN_LENGTHS = (1, 3, 8, 30)


def _inputs() -> list:
    return sorted(DATA.glob("*.chc")) + sorted(GOLDEN.glob("*.chc"))


def _cases() -> list:
    return [(path, mode) for path in _inputs() for mode in MODES]


def _recordings() -> list:
    return _cases() + [(path, "expand") for path in _inputs()]


def _key(path: pathlib.Path, mode: str) -> str:
    return f"{path.stem}.{mode}"


def _argv(path: pathlib.Path, mode: str) -> list:
    """The command line of a recording: ``solve`` in an output mode, or
    ``expand`` for the mode ``"expand"``."""
    return ["expand", str(path)] if mode == "expand" else ["--output", mode, "solve", str(path)]


def _check(path, mode, capsys):
    code = main(_argv(path, mode))
    out = capsys.readouterr().out
    key = _key(path, mode)
    assert out == (GOLDEN / f"{key}.out").read_text(encoding="utf-8")
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[key]


@pytest.mark.parametrize("path,mode", _cases(), ids=lambda x: getattr(x, "stem", x))
def test_solve_output_matches_golden(path, mode, capsys):
    _check(path, mode, capsys)


@pytest.mark.parametrize("path", _inputs(), ids=lambda x: x.stem)
def test_expand_output_matches_golden(path, capsys):
    _check(path, "expand", capsys)


def test_every_input_has_a_recording():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert sorted(codes) == sorted(_key(p, m) for p, m in _recordings())


def _write_chains():
    from generators import chain_clauses
    from hornitp import chc
    from hornitp.horn import ClauseSet, HornClause
    from hornitp.terms import INT, LinearTerm, Var, ge

    for n in CHAIN_LENGTHS:
        hc = chain_clauses(n)
        (GOLDEN / f"chain-{n}.chc").write_text(chc.print_chc(hc), encoding="utf-8")
        query = hc.clauses[-1]
        x = LinearTerm.of(Var("x", INT))
        unsat = hc.clauses[:-1] + (HornClause(ge(x, n), query.body, None),)
        (GOLDEN / f"chain-{n}-unsat.chc").write_text(
            chc.print_chc(ClauseSet.make(unsat)), encoding="utf-8")


def _record():
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    _write_chains()
    codes = {}
    for path, mode in _recordings():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            codes[_key(path, mode)] = main(_argv(path, mode))
        (GOLDEN / f"{_key(path, mode)}.out").write_text(buf.getvalue(), encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(_record())
