"""The CLI's contract under fuzzed command lines.

Each argv is drawn from the command grammar: every subcommand and option,
numbers in decimal, hex and binary, negative, empty, malformed and past
CPython's 4300-digit int<->str limit, and small oracle caps set through the
environment.  It runs twice in process through ``cli.main`` with its
streams captured, and must end in an exit code of {0, 1, 2, 64}, raise
nothing but SystemExit, and write the same stdout both times.
"""

import contextlib
import io
import os
import re
from unittest import mock

from hypothesis import given, settings, strategies as st

from newmansum import cli

_CAP = "NEWMANSUM_ORACLE_CAP"
_OUT = "<scan file>"    # stands for a path in the test's temporary directory
_MALFORMED = ("", " ", "x", "0x", "0b2", "0xg", "1_", "1__0", "12a", "1e3", "--",
              "٣", "²")
# Past every cap and the 4300-digit limit: commands whose work grows with a
# number refuse these at once, and eval takes a few milliseconds.
_HUGE = st.one_of(st.integers(2 ** 40, 2 ** 3000).map(hex),
                  st.sampled_from(["7" * 4400, "0x" + "f" * 4400]))


def _numbers(most):
    return st.one_of(
        st.integers(0, most).map(str), st.integers(0, most).map(hex),
        st.integers(0, most).map(bin), st.integers(-most, -1).map(str),
        st.sampled_from(_MALFORMED))


@st.composite
def _command(draw):
    """(argv, oracle cap or None), the cap small wherever the command's
    work grows with it."""
    name = draw(st.sampled_from(["eval", "verify", "bounds", "eta", "scan", "bench", "other"]))
    cap = draw(st.sampled_from([None, "0", "100", "5000", "bad", "-3"]))
    if name == "eval":
        trace = draw(st.booleans())
        argv = ["eval", draw(_numbers(3000) if trace else st.one_of(_numbers(3000), _HUGE))]
        if draw(st.booleans()):
            argv += ["--algorithm", draw(st.sampled_from(
                ["recursive", "decomposition", "oracle", "fast"]))]
        if draw(st.booleans()):
            argv += ["--residue", draw(st.sampled_from(["0", "1", "2", "3", "x"]))]
        argv += ["--trace"] * trace
    elif name in ("verify", "bounds"):
        argv = [name, "--max", draw(st.one_of(_numbers(2000), _HUGE))]
    elif name == "eta":
        argv = ["eta", "--max", draw(_numbers(60))]
    elif name == "scan":
        argv = ["scan", "--from", draw(_numbers(60)), "--to", draw(_numbers(90)),
                "--step", draw(_numbers(9)), "--out", _OUT]
    elif name == "bench":
        argv = ["bench", "--exponents", ",".join(draw(st.lists(st.one_of(
            st.integers(-2, 80).map(str), st.sampled_from(["", "x", "1.5"])), max_size=3)))]
        cap = draw(st.sampled_from(["0", "100", "5000", "bad"]))
    else:
        argv = draw(st.lists(st.sampled_from(["", "-h", "--bogus", "eval", "5", "run"]),
                             max_size=3))
    if len(argv) > 1 and draw(st.integers(0, 7)) == 0:   # a value or option missing
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv, cap


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    if argv[:1] == ["bench"]:   # its timings are the one output that varies
        text = re.sub(r"\d+\.\d+ ms", "- ms", text)
    return code, text


@settings(max_examples=400)
@given(_command())
def test_fuzzed_command_lines_keep_the_contract(tmp_path_factory, command):
    argv, cap = command
    out_path = str(tmp_path_factory.getbasetemp() / "scan.csv")
    argv = [out_path if arg == _OUT else arg for arg in argv]
    with mock.patch.dict(os.environ):
        os.environ.pop(_CAP, None)
        if cap is not None:
            os.environ[_CAP] = cap
        code, out = _run(argv)
        assert code in (0, 1, 2, 64), argv
        assert _run(argv) == (code, out), argv
