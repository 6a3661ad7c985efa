"""Fuzz test for the command line: any argv ends in a documented exit code
(needs hypothesis)."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from qcatalan import cli

# Sizes stay small (n <= 4, --max-size <= 3, --max-index <= 4) so that every
# run is quick; bad values are mixed in with good ones.
BAD = st.sampled_from(["", "x", "-1", "-2", "1.5", "1,,2", "--n", "no-such-family"])
SMALL = st.integers(0, 4).map(str)
SWITCH = st.just([])


def mostly(good, bad):
    """``good`` nine times in ten, else ``bad``."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 9 else good)


def one(values):
    return mostly(values, BAD).map(lambda v: [v])


def choice(*names):
    return one(st.sampled_from(names))


FAMILY = choice("narayana", "schroder", "eulerian")
INDEX_LIST = choice("0", "0,1", "1,0", "0,2", "1,2,3", "-1,0", "a,b", "5")
CASES = choice("1", "2", "3", "4", "5", "0", "6", "1,2,3,4", "5,x", ",")
INDEX = st.integers(-1, 4).map(str)
TRIPLE = mostly(st.lists(INDEX, min_size=3, max_size=3), st.lists(INDEX, max_size=4))

# subcommand -> {option: strategy of its value tokens}
COMMANDS = {
    "matrix": {
        "--family": FAMILY,
        "--n": one(SMALL),
        "--format": choice("text", "csv", "json"),
        "--rows": INDEX_LIST,
        "--cols": INDEX_LIST,
    },
    "network": {
        "--family": FAMILY,
        "--n": one(SMALL),
        "--case": CASES,
        "--k": one(SMALL),
        "--hankel-induced": SWITCH,
        "--hankel-factored": SWITCH,
        "--check": SWITCH,
        "--format": choice("dot", "json"),
    },
    "verify": {
        "--family": FAMILY,
        "--n": one(SMALL),
        "--max-size": one(st.integers(1, 3).map(str)),
        "--matrix": choice("C", "H"),
        "--seed": one(st.integers(-9, 9).map(str)),
        "--format": choice("json", "csv", "text"),
    },
    "inequality": {
        "--family": FAMILY,
        "--max-index": one(st.integers(2, 4).map(str)),
        "--triple": TRIPLE,
        "--rows": TRIPLE,
        "--cols": TRIPLE,
        "--show": SWITCH,
        "--format": choice("text", "json"),
    },
    "chars": {"--n": one(SMALL), "--format": choice("text", "json")},
}
COMMANDS["hankel"] = COMMANDS["matrix"]
REQUIRED = {"--family", "--n", "--max-size"}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = COMMANDS[command]
    argv = [command]
    for option in draw(st.permutations(sorted(options))):
        # required options are usually present, the others half the time
        if draw(st.integers(0, 15).map(lambda i: i < 15) if option in REQUIRED else st.booleans()):
            argv += [option, *draw(options[option])]
    return argv + draw(mostly(st.just([]), st.sampled_from([["extra"], ["--bogus"], ["--n"]])))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_argv_ends_in_a_documented_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    assert rc in (0, 2, 3, 4, 5), argv
