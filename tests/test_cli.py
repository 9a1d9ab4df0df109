import csv
import datetime as dt
import errno
import multiprocessing
import os
import random
import shutil
import signal
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from synthpanel import classify, cli, inference, synth
from synthpanel.classify import DEFAULT_LEXICON_DIR
from synthpanel.cli import main
from synthpanel.demo import CorpusSpec, write_corpus
from synthpanel.errors import PanelRangeError

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

CLI_SPEC = CorpusSpec(
    countries=("UG", "KE", "GH", "RW", "TZ", "ZM", "ZW", "SN"),
    pre_days=100,
    post_days=30,
    base_users=8.0,
    treated_user_drop=0.30,
    seed=77,
)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    write_corpus(path, CLI_SPEC)
    return path


def read_rows(path: Path):
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f if not line.startswith("#")]
    return list(csv.DictReader(lines))


def run_in(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    return main(argv)


def ten_day_effects(corpus: Path, tmp_path, monkeypatch, outcome: str):
    """Period -> effect from `estimate` and from `aggregate --levels 10`."""
    tweets = str(corpus / "tweets.csv")
    assert run_in(tmp_path, monkeypatch,
                  ["estimate", "--tweets", tweets, "--outcome", outcome, "--out", "out_est"]) == 0
    assert run_in(tmp_path, monkeypatch,
                  ["aggregate", "--tweets", tweets, "--levels", "10",
                   "--outcome", outcome, "--out", "out_agg"]) == 0
    est = read_rows(tmp_path / "out_est" / "estimate" / f"{outcome}_effects.csv")
    agg = read_rows(tmp_path / "out_agg" / "aggregate" / "level_10_effects.csv")
    return {r["period"]: r["effect"] for r in est}, {r["period"]: r["effect"] for r in agg}


def without_provenance(path: Path) -> bytes:
    data = path.read_bytes()
    return data.split(b"\n", 1)[1] if data.startswith(b"# synthpanel") else data


class TestBuildPanel:
    def test_golden_bytes(self, tmp_path, monkeypatch):
        (tmp_path / "data").mkdir()
        shutil.copy(DATA / "tweets_fixture.csv", tmp_path / "data" / "tweets.csv")
        shutil.copy(DATA / "events_fixture.csv", tmp_path / "data" / "events.csv")
        code = run_in(
            tmp_path, monkeypatch,
            ["build-panel", "--tweets", "data/tweets.csv", "--events", "data/events.csv",
             "--t-min", "-2", "--out", "out"],
        )
        assert code == 0
        produced = sorted((tmp_path / "out" / "panels").glob("*.csv"))
        golden = sorted(GOLDEN.glob("*.csv"))
        assert [p.name for p in produced] == [g.name for g in golden]
        for p, g in zip(produced, golden):
            assert p.read_bytes() == g.read_bytes(), p.name

    def test_empty_input_writes_headers_over_window(self, tmp_path, monkeypatch):
        header = (DATA / "tweets_fixture.csv").read_text().splitlines()[0]
        (tmp_path / "tweets.csv").write_text(header + "\n")
        code = run_in(
            tmp_path, monkeypatch,
            ["build-panel", "--tweets", "tweets.csv", "--t-min", "-3", "--out", "out"],
        )
        assert code == 0
        users = (tmp_path / "out" / "panels" / "users.csv").read_text().splitlines()
        assert users[0].startswith("# synthpanel")
        assert users[1] == "country,period,value,flagged"
        assert len(users) == 2  # no countries: zero data rows over the window

    def test_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        (tmp_path / "data").mkdir()
        shutil.copy(DATA / "tweets_fixture.csv", tmp_path / "data" / "tweets.csv")
        argv = ["build-panel", "--tweets", "data/tweets.csv", "--t-min", "-2", "--out", "out"]
        assert run_in(tmp_path, monkeypatch, argv) == 0
        first = {p.name: p.read_bytes() for p in (tmp_path / "out" / "panels").glob("*")}
        assert run_in(tmp_path, monkeypatch, argv) == 0
        second = {p.name: p.read_bytes() for p in (tmp_path / "out" / "panels").glob("*")}
        assert first == second


class TestEstimate:
    def test_negative_step_detected(self, corpus_dir, tmp_path, monkeypatch):
        code = run_in(
            tmp_path, monkeypatch,
            ["estimate", "--tweets", str(corpus_dir / "tweets.csv"),
             "--outcome", "users", "--out", "out"],
        )
        assert code == 0
        averaged = read_rows(tmp_path / "out" / "estimate" / "users_averaged.csv")[0]
        value = float(averaged["value"])
        lo, hi = float(averaged["band_lo"]), float(averaged["band_hi"])
        assert value < -0.1
        assert value < lo or value > hi  # outside the placebo band
        effects = read_rows(tmp_path / "out" / "estimate" / "users_effects.csv")
        post = [r for r in effects if int(r["period"]) >= 0]
        outside = [r for r in post if float(r["effect"]) < float(r["band_lo"])]
        assert len(outside) >= len(post) // 2

    def test_weight_table_sums_to_one(self, corpus_dir, tmp_path, monkeypatch):
        run_in(
            tmp_path, monkeypatch,
            ["estimate", "--tweets", str(corpus_dir / "tweets.csv"),
             "--outcome", "users", "--out", "out"],
        )
        weights = read_rows(tmp_path / "out" / "estimate" / "users_weights.csv")
        total = sum(float(r["weight"]) for r in weights)
        assert total == pytest.approx(1.0, abs=1e-9)
        values = [float(r["weight"]) for r in weights]
        assert values == sorted(values, reverse=True)

    def test_events_outcome(self, corpus_dir, tmp_path, monkeypatch):
        code = run_in(
            tmp_path, monkeypatch,
            ["estimate", "--tweets", str(corpus_dir / "tweets.csv"),
             "--events", str(corpus_dir / "events.csv"),
             "--outcome", "events", "--out", "out"],
        )
        assert code == 0
        averaged = read_rows(tmp_path / "out" / "estimate" / "events_averaged.csv")[0]
        assert float(averaged["value"]) > 0.0  # events rose for the treated country

    def test_repeated_outcome_runs_once(self, corpus_dir, tmp_path, monkeypatch, capsys):
        assert cli._split_outcomes("users, tweets,users,,tweets") == ["users", "tweets"]
        code = run_in(
            tmp_path, monkeypatch,
            ["estimate", "--tweets", str(corpus_dir / "tweets.csv"),
             "--outcome", "users,users", "--out", "out"],
        )
        assert code == 0
        assert capsys.readouterr().out.count("users: averaged post effect") == 1

    def test_svg_artifacts_written(self, corpus_dir, tmp_path, monkeypatch):
        run_in(
            tmp_path, monkeypatch,
            ["estimate", "--tweets", str(corpus_dir / "tweets.csv"),
             "--outcome", "users", "--out", "out"],
        )
        effects_svg = (tmp_path / "out" / "estimate" / "users_effects.svg").read_text()
        assert effects_svg.startswith("<svg")
        assert "<polygon" in effects_svg  # the shaded band
        assert "<polyline" in effects_svg


class TestExitCodes:
    @pytest.mark.parametrize("command", ["estimate", "falsify", "aggregate"])
    def test_missing_treated_is_data_error(self, corpus_dir, tmp_path, monkeypatch, capsys, command):
        code = run_in(
            tmp_path, monkeypatch,
            [command, "--tweets", str(corpus_dir / "tweets.csv"),
             "--treated", "XX", "--outcome", "users", "--out", "out"],
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "data error: treated country 'XX' not in the restricted panel\n"
        )

    @pytest.mark.parametrize("command", ["estimate", "falsify", "aggregate"])
    @pytest.mark.parametrize("window, message", [
        (["--t-min", "0"], "panel has no pre-intervention periods"),
        (["--t-max", "-1"], "panel has no post-intervention periods"),
        (["--t-min", "1"], "panel has no pre-intervention periods"),
    ], ids=["no-pre", "no-post", "positive-t-min"])
    def test_window_without_pre_or_post_is_range_error(
        self, corpus_dir, tmp_path, monkeypatch, capsys, command, window, message
    ):
        fits = []
        monkeypatch.setattr(inference, "estimate_with_placebos", lambda *args: fits.append(args))
        code = run_in(tmp_path, monkeypatch, [
            command, "--tweets", str(corpus_dir / "tweets.csv"), *window, "--out", "out",
        ])
        assert code == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert fits == []  # refused before any fit

    @pytest.mark.parametrize("command", ["estimate", "diffusion"])
    @pytest.mark.parametrize("restriction", ["0", "1.5", "nan"])
    def test_restriction_out_of_range_is_refused_before_ingest(
        self, tmp_path, monkeypatch, capsys, command, restriction
    ):
        (tmp_path / "tweets.csv").write_text("not a tweet csv\n")  # never read
        code = run_in(tmp_path, monkeypatch, [
            command, "--tweets", "tweets.csv", "--restriction", restriction, "--out", "out",
        ])
        assert code == 2
        assert capsys.readouterr().err == "data error: restriction parameter must be in (0, 1]\n"
        assert not (tmp_path / "out").exists()

    def test_too_few_donors_is_inference_error(self, tmp_path, monkeypatch, capsys):
        spec = CorpusSpec(countries=("UG", "KE", "GH", "RW"), pre_days=40,
                          post_days=20, base_users=6.0, seed=5)
        write_corpus(tmp_path / "tiny", spec)
        code = run_in(
            tmp_path, monkeypatch,
            ["estimate", "--tweets", str(tmp_path / "tiny" / "tweets.csv"),
             "--restriction", "1.0", "--outcome", "users", "--out", "out"],
        )
        assert code == 3
        assert "inference error" in capsys.readouterr().err

    def test_schema_violation_reports_row(self, tmp_path, monkeypatch, capsys):
        header = (DATA / "tweets_fixture.csv").read_text().splitlines()
        (tmp_path / "bad.csv").write_text(
            header[0] + "\nt1,u1,2018-07-02T10:00:00Z,UGX,hi,w,2017-01-01T00:00:00Z,5,,,en,en\n"
        )
        code = run_in(
            tmp_path, monkeypatch,
            ["build-panel", "--tweets", "bad.csv", "--out", "out"],
        )
        assert code == 2
        assert "row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "placebo", "falsify", "aggregate"])
    def test_header_only_tweets_is_data_error(self, tmp_path, monkeypatch, capsys, command):
        header = (DATA / "tweets_fixture.csv").read_text().splitlines()[0]
        (tmp_path / "tweets.csv").write_text(header + "\n")
        code = run_in(tmp_path, monkeypatch, [command, "--tweets", "tweets.csv", "--out", "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: sample restriction retains 0 countries")
        assert err.count("\n") == 1

    def test_solver_failure_is_inference_error(self, corpus_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(synth, "_equality_solve", lambda *args: None)
        code = run_in(
            tmp_path, monkeypatch,
            ["estimate", "--tweets", str(corpus_dir / "tweets.csv"),
             "--outcome", "users", "--out", "out"],
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("inference error: simplex weight solver")
        assert err.count("\n") == 1

    def test_failed_lapack_call_is_inference_error(self, corpus_dir, tmp_path, monkeypatch, capsys):
        # a failed LAPACK call returns nan and raises the invalid flag: every
        # solve is refused, the scaled retry too, and no warning escapes
        monkeypatch.setattr(synth, "_lstsq", lambda a, b, rcond: (np.sqrt(np.full(b.shape, -1.0)),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_in(
                tmp_path, monkeypatch,
                ["estimate", "--tweets", str(corpus_dir / "tweets.csv"),
                 "--outcome", "users", "--out", "out"],
            )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("inference error: simplex weight solver")
        assert err.count("\n") == 1

    def test_raising_public_lapack_call_is_inference_error(
        self, corpus_dir, tmp_path, monkeypatch, capsys, request
    ):
        # numpy 1.x binds np.linalg's calls, which raise LinAlgError (a
        # ValueError) on a failed call: the binding refuses it like a nan, so
        # the run ends in an inference error, not a traceback
        def failing(*args):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", failing)
        request.getfixturevalue("public_lapack")  # binds the patched call
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_in(
                tmp_path, monkeypatch,
                ["estimate", "--tweets", str(corpus_dir / "tweets.csv"),
                 "--outcome", "users", "--out", "out"],
            )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("inference error: simplex weight solver")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("first_failure", ["treated", "placebo"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_solver_failure_in_v_search_is_inference_error(
        self, corpus_dir, tmp_path, monkeypatch, capsys, report_cpus, cpus, first_failure
    ):
        # the weekly level subsamples its fitting periods, so its fits run a V
        # search; with 2 CPUs every one of them, and its failure, is in a worker
        pools = report_cpus(cpus)
        if first_failure == "treated":
            monkeypatch.setattr(synth, "_equality_solve", lambda *args: None)
        else:
            search = inference.optimize_v

            def search_failing_off_treated(problem):
                if problem.treated != "UG":
                    monkeypatch.setattr(synth, "_equality_solve", lambda *args: None)
                return search(problem)

            monkeypatch.setattr(inference, "optimize_v", search_failing_off_treated)
        code = run_in(
            tmp_path, monkeypatch,
            ["aggregate", "--tweets", str(corpus_dir / "tweets.csv"), "--levels", "7", "--out", "out"],
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("inference error: simplex weight solver")
        assert err.count("\n") == 1
        assert pools == (["fork"] if cpus == 2 else [])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_bad_levels_is_configuration_error(self, tmp_path, monkeypatch, capsys, where):
        (tmp_path / "run.toml").write_text('levels = "1,abc"\n')
        given = ["--levels", "1,abc"] if where == "flag" else ["--config", "run.toml"]
        code = run_in(tmp_path, monkeypatch, ["aggregate", *given, "--out", "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: levels must be comma-separated day counts")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_unsupported_level_is_refused_before_ingest(
        self, corpus_dir, tmp_path, monkeypatch, capsys, report_cpus, where
    ):
        # level 1 is valid and would start the pool for its V searches
        pools = report_cpus(2)
        monkeypatch.setattr(cli, "read_tweet_table", lambda *args: pytest.fail("the tweets were read"))
        (tmp_path / "run.toml").write_text('levels = "1,3"\n')
        given = ["--levels", "1,3"] if where == "flag" else ["--config", "run.toml"]
        code = run_in(tmp_path, monkeypatch, [
            "aggregate", "--tweets", str(corpus_dir / "tweets.csv"), *given, "--out", "out",
        ])
        assert code == 2
        assert capsys.readouterr() == ("", "data error: unsupported level 3; choose from (1, 7, 10, 28)\n")
        assert pools == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_levels_without_a_number_is_configuration_error(
        self, tmp_path, monkeypatch, capsys, where
    ):
        (tmp_path / "run.toml").write_text('levels = ","\n')
        given = ["--levels", ","] if where == "flag" else ["--config", "run.toml"]
        code = run_in(tmp_path, monkeypatch, [
            "aggregate", "--tweets", str(DATA / "tweets_fixture.csv"), *given, "--out", "out",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: levels names no aggregation level")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["build-panel", "--tweets", str(DATA / "tweets_fixture.csv")],
        ["estimate", "--tweets", str(DATA / "tweets_fixture.csv")],
        ["build-panel", "--events", str(DATA / "events_fixture.csv")],
        ["aggregate", "--tweets", str(DATA / "tweets_fixture.csv")],
    ], ids=["tweets", "estimate", "events", "aggregate"])
    def test_inverted_window_is_range_error(self, tmp_path, monkeypatch, capsys, argv):
        code = run_in(tmp_path, monkeypatch, [*argv, "--t-min", "5", "--out", "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: empty window: t_min 5 is after t_max 0")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("column, value", [
        ("timestamp", "2101-01-01T00:00:00Z"), ("user_created_at", "1969-12-31T00:00:00Z"),
    ])
    def test_date_outside_supported_range(self, tmp_path, monkeypatch, capsys, column, value):
        lines = (DATA / "tweets_fixture.csv").read_text().splitlines()
        cells = lines[1].split(",")
        cells[lines[0].split(",").index(column)] = value
        (tmp_path / "tweets.csv").write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
        code = run_in(tmp_path, monkeypatch, ["build-panel", "--tweets", "tweets.csv", "--out", "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert "outside supported range" in err
        assert err.count("\n") == 1

    def test_window_before_1970_is_range_error(self, tmp_path, monkeypatch, capsys):
        # 18000 days before the 2018-07-01 anchor
        code = run_in(tmp_path, monkeypatch, [
            "build-panel", "--tweets", str(DATA / "tweets_fixture.csv"),
            "--period-days", "1", "--t-min", "-18000", "--out", "out",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "data error: window starts 1969-03-20 outside supported range 1970-2100\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["tweets", "events", "config", "lexicons"])
    def test_non_utf8_input_names_the_file(self, tmp_path, monkeypatch, capsys, kind):
        tweets = (DATA / "tweets_fixture.csv").read_bytes()
        events = (DATA / "events_fixture.csv").read_bytes()
        config = b"t_min = -2\n"
        shutil.copytree(DEFAULT_LEXICON_DIR, tmp_path / "lexicons")
        bad = {
            "tweets": tmp_path / "tweets.csv",
            "events": tmp_path / "events.csv",
            "config": tmp_path / "run.toml",
            "lexicons": tmp_path / "lexicons" / "student.txt",
        }[kind]
        (tmp_path / "tweets.csv").write_bytes(tweets)
        (tmp_path / "events.csv").write_bytes(events)
        (tmp_path / "run.toml").write_bytes(config)
        bad.write_bytes(bad.read_bytes() + b"caf\xe9\n")
        code = run_in(tmp_path, monkeypatch, [
            "build-panel", "--tweets", "tweets.csv", "--events", "events.csv",
            "--config", "run.toml", "--lexicons", "lexicons", "--out", "out",
        ])
        assert code == 2
        name = {"config": "run.toml", "lexicons": str(Path("lexicons") / "student.txt")}.get(
            kind, f"{kind}.csv")
        assert capsys.readouterr().err == f"data error: {name} is not UTF-8 text\n"

    @pytest.mark.parametrize("kind", ["tweets", "events"])
    def test_oversized_field_is_schema_error(self, tmp_path, monkeypatch, capsys, kind):
        lines = (DATA / f"{kind}_fixture.csv").read_text().splitlines()
        cells = lines[1].split(",")
        cells[-1] = "x" * 131_073
        (tmp_path / "in.csv").write_text("\n".join([lines[0], lines[1], ",".join(cells)]) + "\n")
        code = run_in(tmp_path, monkeypatch, ["build-panel", f"--{kind}", "in.csv", "--out", "out"])
        assert code == 2
        assert capsys.readouterr().err == (
            "data error: row 3: field larger than field limit (131072)\n"
        )

    @pytest.mark.parametrize("timestamp, created, day", [
        ("0001-01-01T00:30:00+01:00", "0001-01-01T00:00:00+01:00", "-719163 days from 1970-01-01"),
        ("9999-12-31T23:30:00-01:00", "2017-01-01T00:00:00Z", "2932897 days from 1970-01-01"),
        ("9999-12-31T22:30:00-01:00", "2017-01-01T00:00:00Z", "9999-12-31"),
    ])
    def test_timestamp_past_datetime_range_is_range_error(
        self, tmp_path, monkeypatch, capsys, timestamp, created, day
    ):
        header = (DATA / "tweets_fixture.csv").read_text().splitlines()[0]
        (tmp_path / "tweets.csv").write_text(
            f"{header}\nt1,u1,{timestamp},UG,hi,web,{created},5,,,en,en\n"
        )
        code = run_in(tmp_path, monkeypatch, ["build-panel", "--tweets", "tweets.csv", "--out", "out"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: timestamp {day} outside supported range 1970-2100\n"
        )

    @pytest.mark.parametrize("cutoff", ["0", "-10"])
    def test_cutoff_without_held_out_days_is_configuration_error(
        self, corpus_dir, tmp_path, monkeypatch, capsys, cutoff
    ):
        code = run_in(tmp_path, monkeypatch, [
            "falsify", "--tweets", str(corpus_dir / "tweets.csv"), "--cutoff-days", cutoff,
            "--out", "out",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"data error: cutoff_days must be positive, got {cutoff}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["mu-c", "mu-w", "sigma-c", "sigma-w"])
    def test_non_finite_diffusion_parameter_is_configuration_error(
        self, tmp_path, monkeypatch, capsys, flag, value
    ):
        code = run_in(tmp_path, monkeypatch, [
            "diffusion", f"--{flag}", value, "--grid-n", "51", "--q-steps", "2", "--out", "out",
        ])
        assert code == 2
        name = flag.replace("-", "_")
        assert capsys.readouterr().err == f"data error: {name} must be finite, got {value}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--q-steps", "0"], "q_steps must be at least 1, got 0"),
        (["--q-steps", "-1"], "q_steps must be at least 1, got -1"),
        (["--grid-n", "1"], "grid_n must be at least 2, got 1"),
        (["--grid-n", "0"], "grid_n must be at least 2, got 0"),
        (["--grid-n", "-5"], "grid_n must be at least 2, got -5"),
        (["--q-min", "nan"], "q_min must be finite, got nan"),
        (["--q-max", "inf"], "q_max must be finite, got inf"),
        (["--slope", "nan"], "slope must be finite, got nan"),
        (["--slope", "inf"], "slope must be finite, got inf"),
        (["--response", "logistic", "--scale", "nan"], "scale must be finite, got nan"),
        (["--response", "logistic", "--steepness", "inf"], "steepness must be finite, got inf"),
        (["--response", "logistic", "--midpoint", "nan"], "midpoint must be finite, got nan"),
        (["--slope", "1e308"],
         "phi is not finite at price 0.0: the response or population values are too extreme"),
    ])
    def test_bad_diffusion_grid_or_response_is_configuration_error(
        self, tmp_path, monkeypatch, capsys, recwarn, flags, message
    ):
        code = run_in(tmp_path, monkeypatch, ["diffusion", *flags, "--out", "out"])
        assert code == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not recwarn.list
        assert not (tmp_path / "out").exists()

    def test_steep_logistic_response_takes_its_limit(self, tmp_path, monkeypatch, recwarn):
        # exp(steepness * midpoint) overflows; 1 / (1 + exp) is then its limit 0
        code = run_in(tmp_path, monkeypatch, [
            "diffusion", "--response", "logistic", "--steepness", "2000", "--out", "out",
        ])
        assert code == 0
        assert not recwarn.list
        phi = read_rows(tmp_path / "out" / "diffusion" / "phi_curves.csv")
        assert all(np.isfinite(float(r["phi"])) for r in phi)
        labels: dict = {}
        for r in read_rows(tmp_path / "out" / "diffusion" / "equilibria.csv"):
            labels.setdefault(r["q"], []).append(r["stability"])
        assert len(labels) == 5
        assert all(found == ["stable", "tipping", "stable"] for found in labels.values())

    def test_missing_input_path(self, tmp_path, monkeypatch):
        code = run_in(
            tmp_path, monkeypatch,
            ["build-panel", "--tweets", "no_such.csv", "--out", "out"],
        )
        assert code == 2


class TestNoPartialOutput:
    """A command that fails writes no file and prints no stdout line."""

    def test_failing_all_figures_writes_nothing(self, corpus_dir, tmp_path, monkeypatch, capsys):
        # the corpus has 100 pre days, so falsify, the fourth step, finds no
        # fitting periods before its 100 held-out days
        code = run_in(tmp_path, monkeypatch, [
            "all-figures", "--tweets", str(corpus_dir / "tweets.csv"),
            "--events", str(corpus_dir / "events.csv"), "--out", "out",
        ])
        assert code == 2
        assert capsys.readouterr() == (
            "", "data error: cutoff of 100 days leaves no fitting periods (panel starts at -10)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_command_failing_on_its_second_outcome_writes_nothing(
        self, corpus_dir, tmp_path, monkeypatch, capsys
    ):
        rows = (corpus_dir / "events.csv").read_text().splitlines()
        (tmp_path / "events.csv").write_text(
            "\n".join(r for r in rows if r.split(",")[1] != "UG") + "\n"
        )
        code = run_in(tmp_path, monkeypatch, [
            "estimate", "--tweets", str(corpus_dir / "tweets.csv"), "--events", "events.csv",
            "--outcome", "users,events", "--out", "out",
        ])
        assert code == 2
        assert capsys.readouterr() == (
            "", "data error: treated country 'UG' not in the restricted panel\n"
        )
        assert not (tmp_path / "out").exists()


class TestFalsifyAndAggregate:
    def test_falsify_writes_artifacts(self, corpus_dir, tmp_path, monkeypatch):
        code = run_in(
            tmp_path, monkeypatch,
            ["falsify", "--tweets", str(corpus_dir / "tweets.csv"),
             "--outcome", "users", "--cutoff-days", "50", "--out", "out"],
        )
        assert code == 0
        rows = read_rows(tmp_path / "out" / "falsify" / "falsification.csv")
        assert rows[0]["outcome"] == "users"
        value = float(rows[0]["value"])
        assert np.isfinite(value)
        # no intervention before the anchor: held-out effect is small
        # compared to the genuine post-anchor drop of ~0.3
        assert abs(value) < 0.15

    def test_aggregate_ten_day_matches_estimate(self, corpus_dir, tmp_path, monkeypatch):
        est_map, agg_map = ten_day_effects(corpus_dir, tmp_path, monkeypatch, "users")
        assert est_map == agg_map

    def test_aggregate_keeps_proportions_in_levels(self, corpus_dir, tmp_path, monkeypatch):
        # --transform auto leaves proportion outcomes untransformed, as estimate does
        est_map, agg_map = ten_day_effects(
            corpus_dir, tmp_path, monkeypatch, "prop_collective_users"
        )
        assert est_map == agg_map

    def test_aggregate_window_ignores_bot_tweets(self, tmp_path, monkeypatch):
        spec = CorpusSpec(countries=CLI_SPEC.countries, pre_days=60, post_days=30,
                          base_users=6.0, treated_user_drop=0.30, seed=78)
        write_corpus(tmp_path / "data", spec)
        # a bot tweet 80 days before the anchor, earlier than every human tweet
        bot_day = (spec.anchor - dt.timedelta(days=80)).isoformat()
        with open(tmp_path / "data" / "tweets.csv", "a", encoding="utf-8", newline="") as f:
            csv.writer(f).writerow([
                "bot1", "botuser", f"{bot_day}T12:00:00Z", "UG", "hello", "web",
                "2017-01-01T00:00:00Z", "10", "weather", "", "en", "en",
            ])
        est_map, agg_map = ten_day_effects(tmp_path / "data", tmp_path, monkeypatch, "users")
        assert min(map(int, est_map)) == -6  # the human tweets start 60 days out
        assert est_map == agg_map

    @pytest.mark.parametrize("outcome", ["users,tweets", "events"])
    def test_aggregate_takes_one_twitter_outcome(
        self, corpus_dir, tmp_path, monkeypatch, capsys, outcome
    ):
        code = run_in(
            tmp_path, monkeypatch,
            ["aggregate", "--tweets", str(corpus_dir / "tweets.csv"),
             "--events", str(corpus_dir / "events.csv"),
             "--levels", "10", "--outcome", outcome, "--out", "out"],
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: aggregate takes")
        assert err.count("\n") == 1

    def test_aggregate_weekly_level_runs(self, corpus_dir, tmp_path, monkeypatch):
        tweets = ["--tweets", str(corpus_dir / "tweets.csv"), "--period-days", "7"]
        code = run_in(
            tmp_path, monkeypatch,
            ["aggregate", *tweets, "--levels", "7", "--outcome", "users", "--out", "out"],
        )
        assert code == 0
        assert multiprocessing.active_children() == []  # the placebo workers are gone
        rows = read_rows(tmp_path / "out" / "aggregate" / "level_07_effects.csv")
        post = [float(r["effect"]) for r in rows if int(r["period"]) >= 0]
        assert np.mean(post) < 0.0  # drop recovered at the weekly level too
        # the weekly panel covers the same weeks in every command
        assert run_in(tmp_path, monkeypatch, ["build-panel", *tweets, "--out", "out"]) == 0
        users = read_rows(tmp_path / "out" / "panels" / "users.csv")
        periods = sorted({int(r["period"]) for r in users})
        assert periods == [int(r["period"]) for r in rows]
        assert periods[0] == -15  # 100 pre days, rounded out to whole weeks

    def test_aggregate_bytes_do_not_depend_on_the_cpu_count(
        self, corpus_dir, tmp_path, monkeypatch, capsys, report_cpus
    ):
        # both runs write to the same --out, which the provenance line hashes
        runs, pools = [], []
        for cpus in (2, 1):
            pools.append(report_cpus(cpus))
            code = run_in(tmp_path, monkeypatch, [
                "aggregate", "--tweets", str(corpus_dir / "tweets.csv"), "--levels", "1,7",
                "--out", "out",
            ])
            assert code == 0
            out = tmp_path / "out"
            files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            runs.append((files, capsys.readouterr().out))
            shutil.rmtree(out)
        assert pools == [["fork"], []]  # one pool per run
        assert runs[0] == runs[1]


class TestDiffusionCommand:
    def test_stable_equilibrium_monotone_in_price(self, tmp_path, monkeypatch):
        code = run_in(
            tmp_path, monkeypatch,
            ["diffusion", "--mu-c", "0.5", "--sigma-c", "0.15", "--mu-w", "0.5",
             "--sigma-w", "1.0", "--rho", "-0.6", "--slope", "1.0",
             "--q-min", "0.0", "--q-max", "1.0", "--q-steps", "5", "--out", "out"],
        )
        assert code == 0
        rows = read_rows(tmp_path / "out" / "diffusion" / "equilibria.csv")
        by_q: dict = {}
        for r in rows:
            if r["stability"] == "stable":
                q = float(r["q"])
                by_q[q] = max(by_q.get(q, 0.0), float(r["x_star"]))
        qs = sorted(by_q)
        assert len(qs) == 5
        tops = [by_q[q] for q in qs]
        assert all(b >= a - 1e-9 for a, b in zip(tops, tops[1:]))

    def test_overflow_inside_phi_leaves_stderr_empty(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        env.pop("PYTHONWARNINGS", None)
        done = subprocess.run(
            [sys.executable, "-m", "synthpanel.cli", "diffusion", "--mu-w", "1e308",
             "--q-steps", "2", "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0
        assert done.stderr == ""

    def test_phi_curve_csv_structure(self, tmp_path, monkeypatch):
        run_in(
            tmp_path, monkeypatch,
            ["diffusion", "--q-steps", "2", "--grid-n", "201", "--out", "out"],
        )
        rows = read_rows(tmp_path / "out" / "diffusion" / "phi_curves.csv")
        assert set(rows[0]) == {"q", "x", "phi"}
        assert all(0.0 <= float(r["phi"]) <= 1.0 for r in rows)


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, tmp_path, monkeypatch):
        (tmp_path / "data").mkdir()
        shutil.copy(DATA / "tweets_fixture.csv", tmp_path / "data" / "tweets.csv")
        (tmp_path / "run.toml").write_text(
            '# demo config\n'
            'tweets = "data/tweets.csv"\n'
            'treated = "UG"\n'
            't_min = -2\n'
            'out = "from_file"\n'
        )
        code = run_in(
            tmp_path, monkeypatch,
            ["build-panel", "--config", "run.toml", "--out", "cli_out"],
        )
        assert code == 0
        assert not (tmp_path / "from_file").exists()  # flag overrides file
        users = read_rows(tmp_path / "cli_out" / "panels" / "users.csv")
        assert {r["period"] for r in users} == {"-2", "-1", "0"}  # t_min from file

    @pytest.mark.parametrize("value", ["1e3", "1_000", "true", "Infinity"])
    def test_unquoted_value_reaches_its_flag_as_written(self, tmp_path, monkeypatch, value):
        shutil.copy(DATA / "tweets_fixture.csv", tmp_path / "tweets.csv")
        (tmp_path / "run.toml").write_text(f"tweets = tweets.csv\nout = {value}\n")
        assert run_in(tmp_path, monkeypatch, ["build-panel", "--config", "run.toml"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["run.toml", "tweets.csv", value])

    def test_abbreviated_flag_overrides_file(self, tmp_path, monkeypatch):
        shutil.copy(DATA / "tweets_fixture.csv", tmp_path / "tweets.csv")
        (tmp_path / "run.toml").write_text('tweets = tweets.csv\nout = "from_file"\n')
        code = run_in(tmp_path, monkeypatch, ["build-panel", "--config", "run.toml", "--ou", "abbr"])
        assert code == 0
        assert (tmp_path / "abbr" / "panels" / "users.csv").exists()
        assert not (tmp_path / "from_file").exists()

    # a misspelt key, another command's key, and an abbreviated key
    @pytest.mark.parametrize("line", ["tretaed = KE", "mu_c = 3", "ou = x"])
    def test_key_the_command_does_not_take_is_refused(self, tmp_path, monkeypatch, capsys, line):
        shutil.copy(DATA / "tweets_fixture.csv", tmp_path / "tweets.csv")
        (tmp_path / "run.toml").write_text(f"tweets = tweets.csv\n{line}\n")
        code = run_in(tmp_path, monkeypatch, ["build-panel", "--config", "run.toml", "--out", "out"])
        assert code == 2
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == f"data error: run.toml: {key} is not a build-panel setting\n"
        assert not (tmp_path / "out").exists()

    def test_malformed_config_line(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "run.toml").write_text("tweets data/tweets.csv\n")
        code = run_in(tmp_path, monkeypatch, ["build-panel", "--config", "run.toml"])
        assert code == 2

    def test_invalid_anchor_date(self, tmp_path, monkeypatch, capsys):
        # each value is checked by its flag's type or choices, as on the command line
        for line in ('anchor = "2018-13-01"', 'restriction = "abc"', 't_min = "x"',
                     'transform = "cube"'):
            (tmp_path / "run.toml").write_text(line + "\n")
            code = run_in(tmp_path, monkeypatch, ["diffusion", "--config", "run.toml"])
            assert code == 2
            err = capsys.readouterr().err
            assert line.split(" = ")[0] in err
            assert err.count("\n") == 1


def command_defaults(command: str) -> dict:
    args = cli.build_parser().parse_args([command])
    return {k: v for k, v in vars(args).items() if k not in ("command", "func")}


class TestFlags:
    def test_all_figures_takes_the_flags_of_its_steps(self):
        steps: dict = {}
        for command in ("estimate", "falsify", "aggregate", "diffusion"):
            for key, value in command_defaults(command).items():
                assert steps.setdefault(key, value) == value, key  # same meaning everywhere
        combined = command_defaults("all-figures")
        assert combined.pop("outcome") == ",".join(cli.ALL_OUTCOMES)
        del steps["outcome"]
        assert combined == steps


    def test_negative_numbers_with_an_exponent_are_values(self, tmp_path, monkeypatch, capsys):
        args = cli.build_parser().parse_args(["diffusion", "--q-min", "-1e-3", "--mu-w", "-1E+3"])
        assert (args.q_min, args.mu_w) == (-1e-3, -1e3)
        assert cli.build_parser().parse_args(["build-panel", "--t-min", "-3"]).t_min == -3
        code = run_in(tmp_path, monkeypatch, ["diffusion", "--q-min", "-x", "--out", "out"])
        assert code == 2
        assert capsys.readouterr().err == (
            "data error: synthpanel diffusion: argument --q-min: expected one argument\n"
        )


class TestStartup:
    def test_cli_import_leaves_scipy_special_unloaded(self):
        # scipy.special is most of the import time; only diffusion needs it
        code = "import sys, synthpanel.cli; print('scipy.special' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestPlaceboCommand:
    def test_placebo_csv_columns(self, corpus_dir, tmp_path, monkeypatch):
        code = run_in(
            tmp_path, monkeypatch,
            ["placebo", "--tweets", str(corpus_dir / "tweets.csv"),
             "--outcome", "users", "--out", "out"],
        )
        assert code == 0
        rows = read_rows(tmp_path / "out" / "placebo" / "users_placebos.csv")
        assert set(rows[0]) == {"outcome", "donor", "period", "raw_effect", "scaled_effect", "sigma"}
        donors = {r["donor"] for r in rows}
        assert "UG" not in donors  # the treated unit never enters the distribution


# the 200 pre days let falsification's doubled pre window reach past estimate's
LONG_SPEC = CorpusSpec(
    countries=CLI_SPEC.countries, pre_days=200, post_days=30, base_users=4.0, seed=79,
)
OUTCOMES = ["--outcome", "users,prop_collective_users,events"]


class CallCounter:
    """Wraps a function, or a method when set on a class, and records
    `key(*args)` for each call."""

    def __init__(self, fn, key=lambda *args: args[0]):
        self.fn, self.key, self.seen = fn, key, []

    def __get__(self, instance, owner=None):
        return self if instance is None else types.MethodType(self, instance)

    def __call__(self, *args, **kwargs):
        self.seen.append(self.key(*args))
        return self.fn(*args, **kwargs)


@pytest.fixture(scope="module")
def all_figures_run(tmp_path_factory):
    """One all-figures run on the long corpus, with its ingest calls counted."""
    root = tmp_path_factory.mktemp("shared_ingest")
    write_corpus(root / "data", LONG_SPEC)
    period_days = lambda table, cal: cal.period_length_days  # noqa: E731
    counters = {
        "tweets": CallCounter(cli.read_tweet_table),
        "events": CallCounter(cli.read_events_csv),
        "bot_filter": CallCounter(classify.bot_filter, lambda records, lexicons: len(records)),
        "kept": CallCounter(classify._TableParts.add, lambda parts, records: len(records)),
        "table": CallCounter(classify._TableParts.table, lambda parts, anchor: anchor),
        "lowercased": CallCounter(classify.ascii_lower, len),
        "flags": CallCounter(cli.user_period_flags, period_days),
        "estimates": CallCounter(cli.estimate_outcome, lambda panel, *args: panel.outcome_name),
        "prepared": CallCounter(cli.prepare_outcome, lambda panel, *args: (panel.outcome_name, panel.t_min)),
    }
    with pytest.MonkeyPatch.context() as mp:
        for module, name, counter in (
            (cli, "read_tweet_table", "tweets"), (cli, "read_events_csv", "events"),
            (classify, "bot_filter", "bot_filter"), (classify._TableParts, "add", "kept"),
            (classify._TableParts, "table", "table"),
            (classify, "ascii_lower", "lowercased"),
            (cli, "user_period_flags", "flags"),
            (cli, "estimate_outcome", "estimates"), (cli, "prepare_outcome", "prepared"),
        ):
            mp.setattr(module, name, counters[counter])
        code = main(["all-figures", "--tweets", str(root / "data" / "tweets.csv"),
                     "--events", str(root / "data" / "events.csv"), *OUTCOMES,
                     "--levels", "1,7,10,28", "--q-steps", "2", "--grid-n", "201",
                     "--out", str(root / "all")])
    assert code == 0
    return root, {name: c.seen for name, c in counters.items()}


class TestSharedIngest:
    def test_all_figures_reads_each_input_once(self, all_figures_run):
        root, seen = all_figures_run
        assert seen["tweets"] == [str(root / "data" / "tweets.csv")]
        assert seen["events"] == [str(root / "data" / "events.csv")]
        # each row is bot-filtered once, in chunks of CHUNK_ROWS rows
        rows = len(classify.read_tweets_csv(root / "data" / "tweets.csv"))
        assert rows > classify.CHUNK_ROWS
        assert sum(seen["bot_filter"]) == rows
        assert len(seen["bot_filter"]) == len(seen["kept"]) == -(-rows // classify.CHUNK_ROWS)
        # one table build and one lexicon pass, whatever the number of calendars:
        # every text is lowercased once, by the bot filter or the table build
        assert seen["table"] == [LONG_SPEC.anchor]
        kept = sum(seen["kept"])
        assert len(seen["lowercased"]) <= sum(seen["bot_filter"]) + 4 * kept
        # one build per calendar, shared by every outcome, window and aggregate level
        assert seen["flags"] == [1, 7, 10, 28]

    def test_estimate_and_placebo_share_one_fit_per_outcome(self, all_figures_run):
        _, seen = all_figures_run
        # falsify and aggregate fit other windows through their own library calls
        assert sorted(seen["estimates"]) == ["events", "prop_collective_users", "users"]
        # each outcome is prepared twice: for the estimate, then falsify's 200-day window;
        # users also once per aggregate level, 100 days back at 1, 7, 10 and 28 days
        assert sorted(seen["prepared"]) == sorted(
            [(outcome, t_min) for outcome in seen["estimates"] for t_min in (-10, -20)]
            + [("users", t_min) for t_min in (-100, -15, -10, -4)]
        )

    def test_each_run_reads_its_inputs_afresh(self, tmp_path, monkeypatch):
        shutil.copy(DATA / "tweets_fixture.csv", tmp_path / "tweets.csv")
        reads = CallCounter(cli.read_tweet_table)
        monkeypatch.setattr(cli, "read_tweet_table", reads)
        argv = ["build-panel", "--tweets", "tweets.csv", "--t-min", "-2", "--out", "out"]
        assert run_in(tmp_path, monkeypatch, argv) == 0
        assert run_in(tmp_path, monkeypatch, argv) == 0
        assert reads.seen == ["tweets.csv", "tweets.csv"]

    def test_all_figures_matches_standalone_commands(self, all_figures_run, monkeypatch):
        root, _ = all_figures_run
        inputs = ["--tweets", str(root / "data" / "tweets.csv"),
                  "--events", str(root / "data" / "events.csv")]
        for command, flags, out in (
            ("build-panel", [], "panels"),
            ("estimate", OUTCOMES, "estimate"),
            ("placebo", OUTCOMES, "placebo"),
            ("falsify", OUTCOMES, "falsify"),
            ("aggregate", ["--outcome", "users", "--levels", "1,7,10,28"], "aggregate"),
        ):
            argv = [command, *inputs, *flags, "--out", str(root / "alone")]
            assert run_in(root, monkeypatch, argv) == 0
            produced = sorted((root / "all" / out).iterdir())
            alone = sorted((root / "alone" / out).iterdir())
            assert [p.name for p in produced] == [p.name for p in alone]
            for p, q in zip(produced, alone):
                assert without_provenance(p) == without_provenance(q), p.name


def rewrite_csv(source: Path, target: Path, seed=None, final_newline=True, **dialect) -> None:
    """Write `source`'s rows to `target` with LF line ends unless `dialect`
    says otherwise, the data rows shuffled when given a seed."""
    with open(source, encoding="utf-8", newline="") as f:
        header, *rows = csv.reader(f)
    if seed is not None:
        random.Random(seed).shuffle(rows)
    with open(target, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, **{"lineterminator": "\n", **dialect}).writerows([header, *rows])
    if not final_newline:
        target.write_bytes(target.read_bytes().rstrip(b"\n"))


INPUT_VARIANTS = {
    "rows shuffled, seed 0": {"seed": 0},
    "rows shuffled, seed 1": {"seed": 1},
    "CRLF line ends": {"lineterminator": "\r\n"},
    "every field quoted": {"quoting": csv.QUOTE_ALL},
    "no final newline": {"final_newline": False},
}


def output_tree(root: Path) -> dict[Path, bytes]:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestInputFormats:
    """The readers see rows, not their order in the file or how the CSV spells them."""

    def test_row_order_and_csv_spelling_keep_every_output(self, tmp_path, monkeypatch, capsys):
        write_corpus(tmp_path / "corpus", LONG_SPEC)
        (tmp_path / "data").mkdir()
        # the same input paths and --out in every run, since the provenance hash covers them
        argv = ["all-figures", "--tweets", "data/tweets.csv", "--events", "data/events.csv", *OUTCOMES,
                "--levels", "7,28", "--q-steps", "2", "--grid-n", "201", "--out", "out"]
        runs = {}
        for name, variant in {"as written": {}, **INPUT_VARIANTS}.items():
            inputs = []
            for kind in ("tweets", "events"):
                rewrite_csv(tmp_path / "corpus" / f"{kind}.csv", tmp_path / "data" / f"{kind}.csv", **variant)
                inputs.append((tmp_path / "data" / f"{kind}.csv").read_bytes())
            assert run_in(tmp_path, monkeypatch, argv) == 0, name
            runs[name] = tuple(inputs), capsys.readouterr().out, output_tree(tmp_path / "out")
            shutil.rmtree(tmp_path / "out")
        written, stdout, files = runs.pop("as written")
        for name, (inputs, variant_stdout, variant_files) in runs.items():
            assert inputs != written, f"{name} left the inputs unchanged"
            assert variant_stdout == stdout, name
            assert variant_files == files, name

    @pytest.mark.parametrize("kind", ["tweets", "events", "config", "lexicons"])
    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, capsys, kind):
        # as Excel's "CSV UTF-8" writes it; the collective lexicon's first phrase is "protest"
        shutil.copytree(DEFAULT_LEXICON_DIR, tmp_path / "lexicons")
        shutil.copy(DATA / "tweets_fixture.csv", tmp_path / "tweets.csv")
        shutil.copy(DATA / "events_fixture.csv", tmp_path / "events.csv")
        (tmp_path / "run.toml").write_text("t_min = -2\n")
        marked = {
            "tweets": tmp_path / "tweets.csv",
            "events": tmp_path / "events.csv",
            "config": tmp_path / "run.toml",
            "lexicons": tmp_path / "lexicons" / "collective.txt",
        }[kind]
        argv = ["build-panel", "--tweets", "tweets.csv", "--events", "events.csv",
                "--config", "run.toml", "--lexicons", "lexicons", "--out", "out"]
        runs = []
        for _ in range(2):
            code = run_in(tmp_path, monkeypatch, argv)
            runs.append((code, capsys.readouterr(), output_tree(tmp_path / "out")))
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            marked.write_bytes(b"\xef\xbb\xbf" + marked.read_bytes())
        assert runs[0][0] == 0
        assert runs[1] == runs[0]


class TestWindow:
    def test_weekly_default_window_is_rounded_out_to_whole_weeks(self, all_figures_run):
        root, _ = all_figures_run
        args = cli._resolve(["falsify", "--tweets", str(root / "data" / "tweets.csv"),
                             "--period-days", "7", "--outcome", "users"])
        inputs = cli.RunInputs(args)
        assert inputs.prepared("users")[0].t_min == -15  # 100 days back
        assert inputs.prepared("users", pre_factor=2)[0].t_min == -29  # falsify's 200 days back

    @pytest.mark.parametrize("flag, edge", [("--t-min=-100000000", "starts"), ("--t-max=100000000", "ends")])
    def test_window_outside_1970_to_2100_is_refused(self, flag, edge):
        # refused from the flags alone, before any panel of that size exists
        args = cli._resolve(["estimate", flag])
        with pytest.raises(PanelRangeError, match=f"^window {edge} .* outside supported range 1970-2100$"):
            cli._window_days(args, np.zeros(0, dtype=np.int64))

    def test_default_window_at_an_early_anchor_is_kept(self):
        # the data starts 31 days before the anchor, on 1970-01-01: the
        # default window reaches back only that far
        args = cli._resolve(["estimate", "--anchor", "1970-02-01", "--period-days", "7"])
        assert cli._window_days(args, np.array([-31, 5])) == (31, 6)


run_unit_fit = inference.run_unit_fit


def fit_killing_its_worker(panel, unit, pool, cfg):
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return run_unit_fit(panel, unit, pool, cfg)


def fit_stalling_in_its_worker(panel, unit, pool, cfg):
    if multiprocessing.parent_process() is not None:
        time.sleep(20)
    return run_unit_fit(panel, unit, pool, cfg)


def give_up(signum, frame):
    raise TimeoutError("the run still waits 60 s after its worker died")


class TestRunPool:
    """A run with V-search fits starts one worker pool after ingest, falls
    back to fitting in its own process where the pool cannot start, fails
    as a serial run fails, and leaves no worker behind."""

    def run(self, tmp_path, monkeypatch, capsys, argv):
        """Exit code, stdout, stderr and files of one run, written to tmp_path / "out"."""
        code = run_in(tmp_path, monkeypatch, [*argv, "--out", "out"])
        out, err = capsys.readouterr()
        root = tmp_path / "out"
        files = {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
        shutil.rmtree(root, ignore_errors=True)
        assert multiprocessing.active_children() == []
        return code, out, err, files

    @pytest.mark.parametrize("command, refused", [
        ("aggregate", "every fork"), ("aggregate", "the second fork"), ("all-figures", "every fork"),
    ])
    def test_refused_fork_fits_in_this_process(
        self, corpus_dir, all_figures_run, tmp_path, monkeypatch, capsys, report_cpus, command, refused
    ):
        if command == "aggregate":
            argv = ["aggregate", "--tweets", str(corpus_dir / "tweets.csv"), "--levels", "1,7"]
        else:
            data = all_figures_run[0] / "data"
            argv = ["all-figures", "--tweets", str(data / "tweets.csv"),
                    "--events", str(data / "events.csv"), *OUTCOMES, "--q-steps", "2", "--grid-n", "201"]
        report_cpus(1)
        serial = self.run(tmp_path, monkeypatch, capsys, argv)
        real_fork, forks = os.fork, []

        def fork():
            forks.append(None)
            if refused == "every fork" or len(forks) > 1:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real_fork()

        pools = report_cpus(2)
        monkeypatch.setattr(os, "fork", fork)
        assert self.run(tmp_path, monkeypatch, capsys, argv) == serial
        assert serial[0] == 0
        assert pools == ["fork"]
        assert len(forks) == (1 if refused == "every fork" else 2)

    def test_a_killed_worker_is_one_line(self, corpus_dir, tmp_path, monkeypatch, capsys, report_cpus):
        report_cpus(2)
        monkeypatch.setattr(inference, "run_unit_fit", fit_killing_its_worker)
        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(60)
        try:
            code, out, err, files = self.run(tmp_path, monkeypatch, capsys, [
                "aggregate", "--tweets", str(corpus_dir / "tweets.csv"), "--levels", "7",
            ])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert (code, out, files) == (1, "", {})
        assert err.startswith("worker error: ")
        assert err.count("\n") == 1

    def test_a_failing_run_stops_its_workers(self, corpus_dir, tmp_path, monkeypatch, capsys, report_cpus):
        # every worker fit would take 20 s; falsify, which runs while they
        # do, finds no fitting periods and fails the run
        report_cpus(2)
        monkeypatch.setattr(inference, "run_unit_fit", fit_stalling_in_its_worker)
        start = time.perf_counter()
        code, out, err, files = self.run(tmp_path, monkeypatch, capsys, [
            "all-figures", "--tweets", str(corpus_dir / "tweets.csv"),
            "--events", str(corpus_dir / "events.csv"),
        ])
        assert time.perf_counter() - start < 10.0  # no wait for the stalled fits
        assert (code, out, err, files) == (
            2, "", "data error: cutoff of 100 days leaves no fitting periods (panel starts at -10)\n", {}
        )

    @pytest.mark.parametrize("failing", ["falsify", "aggregate", "diffusion", "aggregate and diffusion"])
    def test_failing_all_figures_fails_as_on_one_cpu(
        self, all_figures_run, tmp_path, monkeypatch, capsys, report_cpus, failing
    ):
        data = all_figures_run[0] / "data"
        argv = ["all-figures", "--tweets", str(data / "tweets.csv"),
                "--events", str(data / "events.csv"), *OUTCOMES]
        if failing == "falsify":
            # no fitting periods before 10000 held-out days; the aggregate,
            # the next step, was submitted before it
            argv += ["--cutoff-days", "10000"]
            expected = (2, "data error: cutoff of 10000 days leaves no fitting periods")
        if "diffusion" in failing:
            # diffusion is computed before the aggregate is collected, but
            # its error comes after the aggregate's
            argv += ["--q-steps", "0"]
            expected = (2, "data error: q_steps must be at least 1, got 0")
        if "aggregate" in failing:
            search = inference.optimize_v

            def search_failing_off_treated(problem):
                if problem.treated != "UG":
                    monkeypatch.setattr(synth, "_equality_solve", lambda *args: None)
                return search(problem)

            monkeypatch.setattr(inference, "optimize_v", search_failing_off_treated)
            expected = (3, "inference error: simplex weight solver")
        runs, pools = [], []
        for cpus in (2, 1):
            pools.append(report_cpus(cpus))
            runs.append(self.run(tmp_path, monkeypatch, capsys, argv))
        assert runs[0] == runs[1]
        code, out, err, files = runs[0]
        assert (code, out, files) == (expected[0], "", {})
        assert err.startswith(expected[1])
        assert err.count("\n") == 1
        assert pools == [["fork"], []]

    def test_no_v_search_imports_no_multiprocessing(self, corpus_dir, tmp_path):
        code = (
            "import sys; from synthpanel.cli import main; "
            f"code = main(['aggregate', '--tweets', {str(corpus_dir / 'tweets.csv')!r}, "
            f"'--levels', '10,28', '--out', {str(tmp_path / 'out')!r}]); "
            "print(code, 'multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False False"
