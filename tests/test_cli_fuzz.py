"""Generated command lines, config files and malformed CSV rows against main().

Whatever the input, a run exits 0, 2 or 3, issues no warning (a CLI
would print it on stderr), and a failed run prints exactly one line on
stderr and never a traceback.
"""

import contextlib
import io
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthpanel.classify import DEFAULT_LEXICON_DIR
from synthpanel.cli import main
from synthpanel.demo import CorpusSpec, write_corpus

DATA = Path(__file__).parent / "data"
SMALL_SPEC = CorpusSpec(
    countries=("UG", "KE", "GH", "RW", "TZ", "ZM", "ZW", "SN"),
    pre_days=120, post_days=10, base_users=1.0, seed=3,
)

TOO_LONG = b"x" * 131_073  # past the csv module's field size limit
BAD_TWEET_ROWS = [
    b"t9,u9,0001-01-01T00:30:00+01:00,UG,hi,web,0001-01-01T00:00:00+01:00,5,,,en,en",
    b"t9,u9,9999-12-31T23:30:00-01:00,UG,hi,web,2017-01-01T00:00:00Z,5,,,en,en",
    b"t9,u9,2018-07-02T10:00:00Z,UG,caf\xe9,web,2017-01-01T00:00:00Z,5,,,en,en",
    b"t9,u9,2018-07-02T10:00:00Z,UG," + TOO_LONG + b",web,2017-01-01T00:00:00Z,5,,,en,en",
    b't9,u9,2018-07-02T10:00:00Z,UG,"' + TOO_LONG + b'",web,2017-01-01T00:00:00Z,5,,,en,en',
    b"t9,u9,2018-07-02T10:00:00Z,UGA,hi,web,2017-01-01T00:00:00Z,5,,,en,en",
    b"t9,u9,2018-07-02T10:00:00Z,UG,hi,web,2017-01-01T00:00:00Z,,,,en,en",
    b"t9,u9,2018-07-02T10:00:00Z,UG,hi,web,2017-01-01T00:00:00Z,-1,,,en,en",
    b"t9,u9,2018-07-02T10:00:00Z,UG,hi,web,2017-01-01T00:00:00Z," + b"9" * 40 + b",,,en,en",
    b"t9,u9,2018-07-02T10:00:00Z,UG,hi,web,2017-01-01T00:00:00Z,1e3,,,en,en",
    b"t9,u9,2016-07-02T10:00:00Z,UG,hi,web,2017-01-01T00:00:00Z,5,,,en,en",
    b"t9,u9,July 2,UG,hi,web,2017-01-01T00:00:00Z,5,,,en,en",
    b"t9,u9,2101-01-01T00:00:00,UG,hi,web,1969-12-31T23:00:00-02:00,5,,,en,en",
    b't9,u9,2018-07-01T02:00:00+03:00,ke,"a\nprotest\x00",web,2017-01-01,5,,,en,en',
    b"t9,u9,2018-07-02T10:00:00Z,UG,hi",
    b'"unterminated',
]
BAD_EVENT_ROWS = [
    b"ACLED,UG,2018-07-02,Riots/protests",
    b"ICEWS,UG,2018-07-02, protests ",
    b"ACLED,UG,1969-12-31,Riots/protests",
    b"ICEWS,KE,2101-01-01,Protest",
    b"GDELT,UG,2018-07-02,Protest",
    b"ACLED,UG,2018-02-30,Riots/protests",
    b"ACLED,U1,2018-07-02,Riots/protests",
    b"ACLED,UG,2018-07-02,Riots/protests\xff",
    b"ACLED,UG,2018-07-02," + TOO_LONG,
    b"ACLED,UG,2018-07-02",
]
CONFIG_LINES = [
    b"t_min = -3", b"t_max = 2", b"t_min = 4", b"period_days = 7", b"period_days = 3",
    b'anchor = "2018-13-01"', b"anchor = 2018-06-01", b"restriction = 0.5", b"restriction = 2",
    b'transform = "cube"', b"transform = level", b'levels = "1,abc"', b'levels = ","',
    b'levels = "7,28"', b'outcome = "users,events"', b'outcome = "bogus"', b'treated = "KE"',
    b"cutoff_days = 20", b"grid_n = 51", b"q_steps = 2", b"rho = 0.5", b"response = logistic",
    b"no equals sign", b"# comment", b"\xff = 1", b"unknown_key = 1",
]
# flag values by the flag groups of the CLI's subcommands, a few of them invalid
COMMON_FLAGS = [
    ["--t-min", "-3"], ["--t-min", "5"], ["--t-max", "1"], ["--t-max", "-4"],
    ["--period-days", "1"], ["--period-days", "7"], ["--period-days", "28"], ["--period-days", "3"],
    ["--anchor", "2018-06-01"], ["--anchor", "2018-13-01"], ["--treated", "KE"], ["--treated", "XX"],
    ["--restriction", "1"], ["--restriction", "0.3"], ["--restriction", "0"],
    ["--transform", "level"], ["--transform", "log1p"], ["--bogus"],
]
OUTCOME_FLAGS = [
    ["--outcome", "users"], ["--outcome", "events,tweets"], ["--outcome", "tax_mention_share"],
    ["--outcome", ""],
]
FALSIFY_FLAGS = [["--cutoff-days", "20"], ["--cutoff-days", "0"]]
AGGREGATE_FLAGS = [["--levels", "7,10"], ["--levels", "x"], ["--levels", "28"]]
DIFFUSION_FLAGS = [
    ["--rho", "0.9"], ["--response", "logistic"], ["--q-steps", "1"], ["--q-steps", "0"],
    ["--q-steps", "-1"], ["--grid-n", "1"], ["--grid-n", "0"], ["--grid-n", "-5"],
    ["--slope", "nan"], ["--slope", "inf"], ["--scale", "nan"], ["--steepness", "inf"],
    ["--midpoint", "nan"], ["--q-min", "nan"], ["--q-max", "inf"],
]
FLAGS = {
    "build-panel": COMMON_FLAGS,
    "estimate": COMMON_FLAGS + OUTCOME_FLAGS,
    "placebo": COMMON_FLAGS + OUTCOME_FLAGS,
    "falsify": COMMON_FLAGS + OUTCOME_FLAGS + FALSIFY_FLAGS,
    "aggregate": COMMON_FLAGS + OUTCOME_FLAGS + AGGREGATE_FLAGS,
    "diffusion": COMMON_FLAGS + DIFFUSION_FLAGS,
    "all-figures": COMMON_FLAGS + OUTCOME_FLAGS + FALSIFY_FLAGS + AGGREGATE_FLAGS + DIFFUSION_FLAGS,
}
COMMAND_LINES = st.sampled_from(sorted(FLAGS)).flatmap(
    lambda command: st.tuples(st.just(command), st.lists(st.sampled_from(FLAGS[command]), max_size=3))
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz_corpus")
    write_corpus(path, SMALL_SPEC)
    return {
        "tweets": {"fixture": (DATA / "tweets_fixture.csv").read_bytes(),
                   "corpus": (path / "tweets.csv").read_bytes()},
        "events": {"fixture": (DATA / "events_fixture.csv").read_bytes(),
                   "corpus": (path / "events.csv").read_bytes()},
    }


def csv_bytes(bases: list, bad_rows: list[bytes]) -> st.SearchStrategy:
    """A base file (None: no file); a quarter get malformed rows appended or spliced in."""
    rows = st.sampled_from([False, False, False, True]).flatmap(
        lambda bad: st.lists(st.sampled_from(bad_rows), min_size=1, max_size=2) if bad else st.just([])
    )
    return st.tuples(st.sampled_from(bases), rows, st.booleans())


def compose(base: bytes, rows: list[bytes], splice: bool) -> bytes:
    lines = base.splitlines(keepends=True)
    at = 2 if splice else len(lines)  # after the first data row, or at the end
    return b"".join(lines[:at] + [row + b"\n" for row in rows] + lines[at:])


@settings(max_examples=180, deadline=None, derandomize=True)
@given(
    command_line=COMMAND_LINES,
    tweets=csv_bytes(["corpus", "corpus", "fixture", "header", "empty", None], BAD_TWEET_ROWS),
    events=csv_bytes(["corpus", "fixture", "header", None], BAD_EVENT_ROWS),
    config=st.none() | st.lists(st.sampled_from(CONFIG_LINES), min_size=1, max_size=3),
    bad_lexicon=st.sampled_from([False] * 7 + [True]),
)
def test_every_input_exits_0_2_or_3_with_one_line(
    corpus, command_line, tweets, events, config, bad_lexicon
):
    command, flags = command_line
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        argv = [command]
        for kind, (base, rows, splice) in (("tweets", tweets), ("events", events)):
            if base is None:
                continue
            if base == "empty":
                content = b""
            elif base == "header":
                content = corpus[kind]["fixture"].splitlines(keepends=True)[0]
            else:
                content = corpus[kind][base]
            (root / f"{kind}.csv").write_bytes(compose(content, rows, splice))
            argv += [f"--{kind}", str(root / f"{kind}.csv")]
        if config is not None:
            (root / "run.toml").write_bytes(b"\n".join(config) + b"\n")
            argv += ["--config", str(root / "run.toml")]
        if bad_lexicon:
            shutil.copytree(DEFAULT_LEXICON_DIR, root / "lexicons")
            with open(root / "lexicons" / "student.txt", "ab") as f:
                f.write(b"\xc3\x28\n")
            argv += ["--lexicons", str(root / "lexicons")]
        if command in ("diffusion", "all-figures"):
            argv += ["--grid-n", "51", "--q-steps", "2"]  # a small sweep, unless a flag below sets one
        for flag in flags:
            argv += flag
        argv += ["--out", str(root / "out")]

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            code = main(argv)
    message = err.getvalue()
    assert code in (0, 2, 3), (argv, message)
    assert not warned, (argv, [str(w.message) for w in warned])
    assert "Traceback" not in message
    if code != 0:
        assert message.count("\n") == 1 and message.endswith("\n"), (argv, message)
