"""Command-line pipeline: one subcommand per figure-style artifact.

Every command is a pure function of its resolved configuration and the
input files; reruns produce byte-identical CSV and SVG output. `main()`
writes a command's files and prints its lines once it has succeeded.
Exit code 2 signals a data problem, 3 an inference degeneracy, 1 a
worker process that died.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import hashlib
import re
import sys
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .classify import (
    OUTCOME_NAMES,
    PROPORTION_OUTCOMES,
    TweetTable,
    UserPeriodFlags,
    load_lexicons,
    read_tweet_table,
    twitter_outcomes,
    user_period_flags,
)
from .diffusion import PopulationParams, ResponseFunction, equilibria, require_finite
from .errors import (
    ConfigurationError,
    DataError,
    EmptyPlatformError,
    InferenceError,
    PanelRangeError,
)
from .events import EventColumns, event_panel, read_events_csv
from .inference import (
    AveragedEffect,
    EstimatorConfig,
    FitPool,
    OutcomeEstimate,
    estimate_outcome,
    falsification_run,
    prepare_outcome,
    submit_aggregation_suite,
)
from .panel import (
    DEFAULT_ANCHOR,
    EPOCH,
    _LAST_DAY,
    SUPPORTED_PERIOD_LENGTHS,
    PanelSeries,
    PeriodCalendar,
    SampleRestriction,
    _out_of_range,
    day_offsets,
    normalize_at_reference,
    utf8_lines,
    window_periods,
)
from .svgplot import LineChart

ALL_OUTCOMES = OUTCOME_NAMES + ("events",)


# ---------------------------------------------------------------------------
# configuration


def _parse_flat_config(path: Path) -> dict[str, str]:
    """Flat key = value file (TOML-compatible subset); '#' starts a comment line.

    A value stays text as written, less enclosing quotes, for its flag's type to read.
    """
    values: dict[str, str] = {}
    for line_no, line in enumerate(utf8_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{line_no}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        raw = raw.strip()
        if raw.startswith(("\"", "'")) and raw.endswith(raw[0]) and len(raw) >= 2:
            raw = raw[1:-1]
        values[key] = raw
    return values


def _config_hash(args: argparse.Namespace) -> str:
    skip = ("func", "outcomes")  # derived fields; 'outcome' carries the raw value
    items = sorted(
        (k, v) for k, v in vars(args).items() if k not in skip and not callable(v)
    )
    canon = ";".join(f"{k}={v!r}" for k, v in items)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _provenance(args: argparse.Namespace) -> str:
    return f"# synthpanel {__version__} config={_config_hash(args)}"


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _write_csv(path: Path, provenance: str, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(provenance + "\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_svg(path: Path, chart: LineChart) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(chart.render(), encoding="utf-8")


class Output(NamedTuple):
    """A command's files, each (path under --out, CSV (header, rows) or LineChart), and stdout lines."""

    files: list[tuple[str, tuple[list[str], list[list]] | LineChart]]
    lines: list[str]


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _window_days(args, offsets: np.ndarray, pre_factor: int = 1) -> tuple[int, int]:
    """The run's window as (pre_days, post_days): the days [-pre_days, post_days).

    `offsets` are the data's day offsets from the anchor. `--t-min` and
    `--t-max` count periods of `--period-days`. By default the window
    reaches back `pre_factor` times 100 days, or to the data's first day
    if that is later, and forward to the data's last day. A window that
    leaves 1970-2100 raises PanelRangeError.
    """
    length, default_pre, anchor = args.period_days, pre_factor * 100, (args.anchor - EPOCH).days
    first, last = (int(offsets.min()), int(offsets.max())) if offsets.size else (-default_pre, 0)
    pre_days = -args.t_min * length if args.t_min is not None else min(default_pre, max(1, -first))
    post_days = (args.t_max + 1) * length if args.t_max is not None else max(1, last + 1)
    if pre_days + post_days <= 0:
        t_min, t_max = window_periods((pre_days, post_days), length)
        raise PanelRangeError(f"empty window: t_min {t_min} is after t_max {t_max}")
    for edge, day in (("starts", anchor - pre_days), ("ends", anchor + post_days - 1)):
        if not 0 <= day <= _LAST_DAY:
            raise _out_of_range(day, f"window {edge}")
    return pre_days, post_days


class RunInputs:
    """The input files of one CLI run, each read once and shared by its steps.

    An instance lives as long as one `main()` call, so each run reads its
    files afresh. The tweet CSV is parsed, bot-filtered and classified
    chunk by chunk into one tweet table. This is the one place that
    builds panels from it: its flags once per calendar and its outcome
    panels once per calendar and window, shared by `estimate`, `falsify`
    and each `aggregate` level. An outcome is prepared and estimated once
    over the run's window, for both `estimate` and `placebo`, and its
    aggregation collector is built once. Every estimate's fits go through
    `inference.submit_estimates`, the V searches to the run's one `pool`,
    which `main()` closes. Callers must not mutate what they get back.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.pool = FitPool()
        self._flags: dict[int, UserPeriodFlags] = {}
        self._twitter_panels: dict[tuple[int, tuple[int, int]], dict[str, PanelSeries]] = {}
        self._estimates: dict[str, OutcomeEstimate] = {}
        self._aggregations: dict[str, Callable[[], dict[int, OutcomeEstimate]]] = {}

    @cached_property
    def tweets(self) -> TweetTable:
        """The bot-filtered tweets, classified once, as a table, read in
        chunks that keep only the table's inputs (`read_tweet_table`)."""
        if not self.args.tweets:
            raise ConfigurationError("this command needs --tweets")
        return read_tweet_table(self.args.tweets, load_lexicons(self.args.lexicons), self.args.anchor)

    def flags(self, length: int) -> UserPeriodFlags:
        """The tweets' user-period flags on the calendar of `length`-day periods."""
        if length not in self._flags:
            calendar = PeriodCalendar(anchor_date=self.args.anchor, period_length_days=length)
            self._flags[length] = user_period_flags(self.tweets, calendar)
        return self._flags[length]

    @cached_property
    def events(self) -> EventColumns:
        if not self.args.events:
            raise ConfigurationError("this command needs --events")
        return read_events_csv(self.args.events)

    def twitter_panels(self, pre_factor: int = 1, length: int | None = None) -> dict[str, PanelSeries]:
        length = self.args.period_days if length is None else length
        window = _window_days(self.args, self.tweets.day, pre_factor)
        periods = window_periods(window, length)
        if (length, periods) not in self._twitter_panels:
            flags = self.flags(length)
            self._twitter_panels[length, periods] = twitter_outcomes(flags, self.tweets, periods=periods)
        return self._twitter_panels[length, periods]

    def event_panel(self, pre_factor: int = 1) -> PanelSeries:
        window = _window_days(self.args, day_offsets(self.events.day, self.args.anchor), pre_factor)
        calendar = PeriodCalendar(anchor_date=self.args.anchor, period_length_days=self.args.period_days)
        return event_panel(self.events, calendar, periods=window_periods(window, self.args.period_days))

    def prepared(
        self, outcome: str, pre_factor: int = 1, level: int | None = None
    ) -> tuple[PanelSeries, EstimatorConfig]:
        """The outcome's estimation panel and period split, from `prepare_outcome`,
        in periods of `level` days with the level's fitting periods if given."""
        if outcome == "events":
            panel, users = self.event_panel(pre_factor), None
        else:
            panels = self.twitter_panels(pre_factor, level)
            panel, users = panels[outcome], panels["users"]
        return prepare_outcome(
            panel, self.args.treated, _transform(self.args, outcome), users=users,
            restriction=SampleRestriction(parameter=self.args.restriction), level_days=level,
        )

    def estimate(self, outcome: str) -> OutcomeEstimate:
        """The outcome's estimate over the run's window, which is fixed."""
        if outcome not in self._estimates:
            panel, cfg = self.prepared(outcome)
            self._estimates[outcome] = estimate_outcome(panel, self.args.treated, cfg)
        return self._estimates[outcome]

    def aggregation(self, outcome: str) -> Callable[[], dict[int, OutcomeEstimate]]:
        """The collector of the outcome's aggregation suite over the run's
        window, from `submit_aggregation_suite` on the run's pool: its
        levels are prepared and their fits submitted on the first call."""
        if outcome not in self._aggregations:
            # ingest and window errors raise here, not held by the first level:
            # a failed ingest is not cached, so a held one would run again
            _window_days(self.args, self.tweets.day)
            self._aggregations[outcome] = submit_aggregation_suite(
                self.pool, self.args.treated,
                lambda level: self.prepared(outcome, level=level), self.args.levels,
            )
        return self._aggregations[outcome]


def _transform(args, outcome: str) -> str:
    if args.transform == "auto":
        return "level" if outcome in PROPORTION_OUTCOMES else "log1p"
    return args.transform


def _effects(stem: str, outcome: str, est: OutcomeEstimate, title: str) -> list:
    """Files `stem`.csv, the estimate's effects and bands per period, and `stem`.svg, their chart."""
    periods, effects, bands, dist = list(est.panel.periods), est.fit.effects, est.bands, est.dist
    excluded = ";".join(d for d, _ in dist.excluded)
    table = (
        ["outcome", "period", "effect", "band_lo", "band_hi", "n_placebos", "excluded_donors"],
        [[outcome, t, _fmt(effects[i]), _fmt(bands[0, i]), _fmt(bands[1, i]), dist.n_placebos, excluded]
         for i, t in enumerate(periods)],
    )
    chart = LineChart(title=title, x_label="period", y_label="effect", vline=-0.5, hline=0.0)
    chart.add_band(periods, bands[0], bands[1])
    chart.add_series("effect", periods, effects)
    return [(f"{stem}.csv", table), (f"{stem}.svg", chart)]


def _averaged_text(averaged: AveragedEffect, label: str = "averaged post effect") -> str:
    lo, hi = averaged.band
    return f"{label} {averaged.value:+.4f} band [{lo:+.4f}, {hi:+.4f}]"


# ---------------------------------------------------------------------------
# subcommands


def cmd_build_panel(args, inputs: RunInputs) -> Output:
    panels = dict(inputs.twitter_panels()) if args.tweets else {}
    if args.events:
        panels["events"] = inputs.event_panel()
    if not panels:
        raise ConfigurationError("build-panel needs --tweets and/or --events")
    files = []
    for name in sorted(panels):
        panel = panels[name]
        rows = []
        for ci, country in enumerate(panel.countries):
            for pi, t in enumerate(panel.periods):
                flagged = int(bool(panel.flagged[ci, pi])) if panel.flagged is not None else 0
                rows.append([country, t, _fmt(panel.values[ci, pi]), flagged])
        files.append((f"panels/{name}.csv", (["country", "period", "value", "flagged"], rows)))
    return Output(files, [f"wrote {len(panels)} panels to {Path(args.out, 'panels')}"])


def cmd_estimate(args, inputs: RunInputs) -> Output:
    files, lines = [], []
    for outcome in args.outcomes:
        est = inputs.estimate(outcome)
        panel, fit, dist, averaged = est.panel, est.fit, est.dist, est.averaged
        files += _effects(f"estimate/{outcome}_effects", outcome, est, f"Treatment effect: {outcome}")
        donors = [d for d in panel.countries if d != args.treated]
        order = np.argsort(-fit.weights.w, kind="stable")
        weights = [[donors[j], _fmt(fit.weights.w[j])] for j in order]
        files.append((f"estimate/{outcome}_weights.csv", (["donor", "weight"], weights)))
        files.append((f"estimate/{outcome}_averaged.csv", (
            ["outcome", "value", "band_lo", "band_hi", "n_placebos"],
            [[outcome, _fmt(averaged.value), _fmt(averaged.band[0]),
              _fmt(averaged.band[1]), dist.n_placebos]],
        )))

        periods = list(panel.periods)
        treated_series = panel.series(args.treated)
        synthetic = treated_series - fit.effects
        donor_avg = np.mean([panel.series(d) for d in donors], axis=0)
        paths_chart = LineChart(
            title=f"Treated vs synthetic: {outcome}", x_label="period", y_label=outcome,
            vline=-0.5,
        )
        paths_chart.add_series("treated", periods, treated_series)
        paths_chart.add_series("synthetic", periods, synthetic)
        paths_chart.add_series(
            "donor average (shifted)", periods,
            normalize_at_reference(treated_series, donor_avg, periods),
        )
        for j in order[:3]:  # highest-weight donors, shifted to the treated at t = -1
            paths_chart.add_series(
                f"{donors[j]} (shifted)", periods,
                normalize_at_reference(treated_series, panel.series(donors[j]), periods),
            )
        files.append((f"estimate/{outcome}_paths.svg", paths_chart))
        lines.append(f"{outcome}: {_averaged_text(averaged)}")
    return Output(files, lines)


def cmd_placebo(args, inputs: RunInputs) -> Output:
    files, lines = [], []
    for outcome in args.outcomes:
        dist = inputs.estimate(outcome).dist
        rows = []
        for di, donor in enumerate(dist.donors):
            for pi, t in enumerate(dist.periods):
                rows.append([
                    outcome, donor, t, _fmt(dist.raw_effects[di, pi]),
                    _fmt(dist.scaled_effects[di, pi]), _fmt(dist.sigmas[di]),
                ])
        files.append((f"placebo/{outcome}_placebos.csv", (
            ["outcome", "donor", "period", "raw_effect", "scaled_effect", "sigma"], rows,
        )))
        excluded = [[d, reason] for d, reason in dist.excluded]
        files.append((f"placebo/{outcome}_excluded.csv", (["donor", "reason"], excluded)))
        lines.append(f"{outcome}: {dist.n_placebos} placebos, {len(dist.excluded)} excluded")
    return Output(files, lines)


def cmd_falsify(args, inputs: RunInputs) -> Output:
    rows, lines = [], []
    for outcome in args.outcomes:
        # need the fitting window plus the held-out window of pre data
        panel, _ = inputs.prepared(outcome, pre_factor=2)
        averaged = falsification_run(
            panel, args.treated, args.period_days, cutoff_days=args.cutoff_days
        )
        rows.append([outcome, _fmt(averaged.value), _fmt(averaged.band[0]), _fmt(averaged.band[1])])
        lines.append(_averaged_text(averaged, f"falsification {outcome}:"))
    chart = LineChart(
        title=f"Falsification: averaged effects over held-out {args.cutoff_days} pre days",
        x_label="outcome index", y_label="averaged effect", hline=0.0,
    )
    xs = list(range(len(rows)))
    chart.add_band(xs, [float(r[2]) for r in rows], [float(r[3]) for r in rows])
    chart.add_series("averaged effect", xs, [float(r[1]) for r in rows])
    table = (["outcome", "value", "band_lo", "band_hi"], rows)
    return Output([("falsify/falsification.csv", table), ("falsify/falsification.svg", chart)], lines)


def cmd_aggregate(args, inputs: RunInputs) -> Output:
    if not args.tweets:
        raise ConfigurationError("aggregate needs --tweets")
    if len(args.outcomes) != 1:
        raise ConfigurationError(f"aggregate takes one outcome, got {','.join(args.outcomes)}")
    outcome = args.outcomes[0]
    if outcome not in OUTCOME_NAMES:
        raise ConfigurationError(f"aggregate takes a Twitter outcome, not {outcome!r}")
    results = inputs.aggregation(outcome)()
    files, lines = [], []
    for level in sorted(results):
        est = results[level]
        files += _effects(f"aggregate/level_{level:02d}_effects", outcome, est,
                          f"{outcome} at {level}-day aggregation")
        lines.append(f"level {level}d: {_averaged_text(est.averaged)}")
    return Output(files, lines)


def cmd_diffusion(args, inputs: RunInputs) -> Output:
    params = PopulationParams(
        mu_c=args.mu_c, mu_w=args.mu_w, sigma_c=args.sigma_c,
        sigma_w=args.sigma_w, rho=args.rho,
    )
    if args.response == "linear":
        response = ResponseFunction.linear(args.slope)
    else:
        response = ResponseFunction.logistic(args.scale, args.steepness, args.midpoint)
    require_finite(q_min=args.q_min, q_max=args.q_max)
    if args.q_steps < 1:
        raise ConfigurationError(f"q_steps must be at least 1, got {args.q_steps}")
    qs = np.linspace(args.q_min, args.q_max, args.q_steps)
    curve_rows, eq_rows = [], []
    chart = LineChart(title="Participation best-response map", x_label="x", y_label="phi(x)")
    chart.add_series("diagonal", [0.0, 1.0], [0.0, 1.0], color="#999999")
    for q in qs:
        # phi over the grid where the platform is not empty
        eq = equilibria(float(q), response, params, grid_n=args.grid_n)
        for x, val in zip(eq.grid_x, eq.grid_phi):
            curve_rows.append([_fmt(q), _fmt(x), _fmt(val)])
        for x_star, label in zip(eq.fixed_points, eq.labels):
            eq_rows.append([_fmt(q), _fmt(x_star), label])
        chart.add_series(f"q={q:.3g}", list(eq.grid_x), list(eq.grid_phi))
    return Output([
        ("diffusion/phi_curves.csv", (["q", "x", "phi"], curve_rows)),
        ("diffusion/equilibria.csv", (["q", "x_star", "stability"], eq_rows)),
        ("diffusion/phi.svg", chart),
    ], [f"wrote diffusion curves for {len(qs)} prices to {Path(args.out, 'diffusion')}"])


def cmd_all_figures(args, inputs: RunInputs) -> Output:
    """Every step's files and lines, in step order.

    The aggregate is submitted first, right after ingest: its levels are
    prepared up to the first that fails, and its V searches, treated and
    placebo, run in the pool's worker processes while this process
    computes every other step, diffusion included. It is collected at its
    place in the order, where its plain 10- and 28-day fits run. Ingest
    and the window are also build-panel's first work, so an error there
    is the one build-panel raises. The aggregate's later errors are raised
    where it is collected, and diffusion's after them, as in a serial run.
    """
    if args.tweets:
        inputs.aggregation("users")
    outputs = [step(args, inputs) for step in (cmd_build_panel, cmd_estimate, cmd_placebo, cmd_falsify)]
    try:
        diffusion, diffusion_error = cmd_diffusion(args, inputs), None
    except Exception as exc:  # raised once the aggregate has been collected
        diffusion, diffusion_error = None, exc
    if args.tweets:
        outputs.append(cmd_aggregate(argparse.Namespace(**{**vars(args), "outcomes": ["users"]}), inputs))
    if diffusion_error is not None:
        raise diffusion_error
    outputs.append(diffusion)
    lines = [line for output in outputs for line in output.lines]
    return Output([file for output in outputs for file in output.files], lines + ["all artifacts written"])


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="flat key = value config file")
    parser.add_argument("--tweets", type=str, default=None, help="tweet CSV path")
    parser.add_argument("--events", type=str, default=None, help="event CSV path")
    parser.add_argument("--lexicons", type=str, default=None, help="lexicon directory")
    parser.add_argument("--anchor", type=dt.date.fromisoformat, default=DEFAULT_ANCHOR)
    parser.add_argument("--period-days", type=int, default=10, choices=SUPPORTED_PERIOD_LENGTHS)
    parser.add_argument("--treated", type=str, default="UG")
    parser.add_argument("--restriction", type=float, default=0.8)
    parser.add_argument("--t-min", type=int, default=None, help="first panel period (default: 100 pre days, or from data)")
    parser.add_argument("--t-max", type=int, default=None, help="last panel period (default: from data)")
    parser.add_argument("--transform", choices=("auto", "level", "log1p"), default="auto")
    parser.add_argument("--out", type=str, default="out")


def _split_outcomes(raw: str) -> list[str]:
    """The named outcomes in order, each once."""
    outcomes = list(dict.fromkeys(o.strip() for o in raw.split(",") if o.strip()))
    for o in outcomes:
        if o not in ALL_OUTCOMES:
            raise ConfigurationError(f"unknown outcome {o!r}; choose from {ALL_OUTCOMES}")
    return outcomes


def _add_outcome(parser: argparse.ArgumentParser, default: str = "users") -> None:
    parser.add_argument("--outcome", type=str, default=default, help="comma-separated outcome names")


def _add_falsify(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cutoff-days", type=int, default=100)


def _add_aggregate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--levels", type=str, default="1,7,10,28")


def _add_diffusion(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu-c", type=float, default=1.0)
    parser.add_argument("--mu-w", type=float, default=0.5)
    parser.add_argument("--sigma-c", type=float, default=1.0)
    parser.add_argument("--sigma-w", type=float, default=1.0)
    parser.add_argument("--rho", type=float, default=-0.5)
    parser.add_argument("--response", choices=("linear", "logistic"), default="linear")
    parser.add_argument("--slope", type=float, default=1.0)
    parser.add_argument("--scale", type=float, default=1.5)
    parser.add_argument("--steepness", type=float, default=8.0)
    parser.add_argument("--midpoint", type=float, default=0.5)
    parser.add_argument("--q-min", type=float, default=0.0)
    parser.add_argument("--q-max", type=float, default=1.0)
    parser.add_argument("--q-steps", type=int, default=5)
    parser.add_argument("--grid-n", type=int, default=2001)


def _add_all_outcomes(parser: argparse.ArgumentParser) -> None:
    _add_outcome(parser, default=",".join(ALL_OUTCOMES))


# the flag groups each subcommand takes on top of the common flags;
# all-figures takes every group its steps take
_FLAG_GROUPS = {
    "build-panel": (),
    "estimate": (_add_outcome,),
    "placebo": (_add_outcome,),
    "falsify": (_add_outcome, _add_falsify),
    "aggregate": (_add_aggregate, _add_outcome),
    "diffusion": (_add_diffusion,),
    "all-figures": (_add_all_outcomes, _add_falsify, _add_aggregate, _add_diffusion),
}


def _add_flags(parser: argparse.ArgumentParser, command: str) -> None:
    _add_common(parser)
    for add in _FLAG_GROUPS[command]:
        add(parser)


class _Parser(argparse.ArgumentParser):
    """Reports a command-line error as a ConfigurationError: one line, exit 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own matcher takes no exponent, so it reads "-1e-3" as an
        # option; no option here looks like a number, so such a token is a value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str):
        raise ConfigurationError(f"{self.prog}: {message}")


def build_parser(config: dict[str, dict] | None = None) -> argparse.ArgumentParser:
    """The command-line parser; `config` maps a command to defaults for its flags."""
    parser = _Parser(prog="synthpanel", description=__doc__)
    parser.add_argument("--version", action="version", version=f"synthpanel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text, func in (
        ("build-panel", "write per-outcome panel CSVs", cmd_build_panel),
        ("estimate", "synthetic-control effects with placebo bands", cmd_estimate),
        ("placebo", "emit the scaled placebo distribution", cmd_placebo),
        ("falsify", "restricted-fit falsification over held-out pre periods", cmd_falsify),
        ("aggregate", "re-estimate at 1/7/10/28-day aggregation", cmd_aggregate),
        ("diffusion", "equilibrium tables and phi curves over a price sweep", cmd_diffusion),
        ("all-figures", "run the full artifact pipeline", cmd_all_figures),
    ):
        p = sub.add_parser(command, help=help_text)
        _add_flags(p, command)
        p.set_defaults(func=func, **(config or {}).get(command, {}))
    return parser


def _config_values(path: Path, command: str) -> dict:
    """The --config file's values, each read by the command's matching flag.

    Each value goes through its flag's type conversion and choice check,
    so a file value means what the same flag would. A key must name a
    flag of `command` in full.
    """
    flags = argparse.ArgumentParser(exit_on_error=False, allow_abbrev=False)
    _add_flags(flags, command)
    values = {}
    for key, value in _parse_flat_config(path).items():
        try:
            parsed, unknown = flags.parse_known_args([f"--{key.replace('_', '-')}={value}"])
        except argparse.ArgumentError as exc:
            raise ConfigurationError(f"{path}: {key}: {exc.message}") from None
        if unknown:
            raise ConfigurationError(f"{path}: {key} is not a {command} setting")
        values[key] = getattr(parsed, key)
    return values


def _resolve(argv: list[str] | None) -> argparse.Namespace:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    if args.config is not None:
        # the file's values become the command's defaults, so a flag given
        # on the command line wins in any spelling argparse accepts
        config = {args.command: _config_values(args.config, args.command)}
        args = build_parser(config).parse_args(argv)
    SampleRestriction(parameter=args.restriction)  # refuses a bad value before ingest
    for attr in ("tweets", "events", "lexicons"):
        path = getattr(args, attr, None)
        if path is not None and not Path(path).exists():
            raise ConfigurationError(f"{attr} path does not exist: {path}")
    if hasattr(args, "outcome"):
        args.outcomes = _split_outcomes(args.outcome)
        if "events" in args.outcomes and not args.events:
            args.outcomes = [o for o in args.outcomes if o != "events"]
        if not args.outcomes:
            raise ConfigurationError("no estimable outcomes requested")
    if hasattr(args, "levels"):
        try:
            args.levels = [int(x) for x in args.levels.split(",") if x.strip()]
        except ValueError:
            raise ConfigurationError(
                f"levels must be comma-separated day counts, got {args.levels!r}"
            ) from None
        if not args.levels:
            raise ConfigurationError("levels names no aggregation level")
        for level in args.levels:
            if level not in SUPPORTED_PERIOD_LENGTHS:
                raise ConfigurationError(f"unsupported level {level}; choose from {SUPPORTED_PERIOD_LENGTHS}")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _resolve(argv)
        inputs = RunInputs(args)
        with inputs.pool:
            output = args.func(args, inputs)
        provenance = _provenance(args)
        for path, content in output.files:
            if isinstance(content, LineChart):
                _write_svg(Path(args.out, path), content)
            else:
                _write_csv(Path(args.out, path), provenance, *content)
        for line in output.lines:
            print(line)
        return 0
    except InferenceError as exc:
        print(f"inference error: {exc}", file=sys.stderr)
        return 3
    except (DataError, EmptyPlatformError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a worker process died (killed, out of memory): BrokenProcessPool.
        # Its module is loaded only once a pool has started
        futures = sys.modules.get("concurrent.futures")
        if futures is None or not isinstance(exc, futures.BrokenExecutor):
            raise
        print(f"worker error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
