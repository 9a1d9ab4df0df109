"""Command-line pipeline: one subcommand per figure-style artifact.

Every command is a pure function of its resolved configuration and the
input files; reruns produce byte-identical CSV and SVG output. Exit code
2 signals a data problem, 3 an inference degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import hashlib
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .classify import (
    OUTCOME_NAMES,
    PROPORTION_OUTCOMES,
    TweetTable,
    UserPeriodFlags,
    bot_filter,
    load_lexicons,
    read_tweets_csv,
    tweet_table,
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
    OutcomeEstimate,
    aggregation_suite,
    estimate_outcome,
    falsification_run,
    prepare_outcome,
)
from .panel import (
    EPOCH,
    PanelSeries,
    PeriodCalendar,
    SampleRestriction,
    normalize_at_reference,
    utf8_lines,
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


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _default_t_min(period_days: int) -> int:
    # roughly 100 days of pre-intervention window
    return -max(3, round(100 / period_days))


def _window(args, span, pre_factor: int = 1) -> tuple[int, int]:
    """Resolve the panel window; a defaulted t_min never precedes the data.

    `span` is the (first, last) day offset of the data from the anchor,
    or None when there is no data.
    """
    data_t_min, data_t_max = (d // args.period_days for d in span) if span else (None, None)
    if args.t_min is not None:
        t_min = args.t_min
    else:
        t_min = pre_factor * _default_t_min(args.period_days)
        if data_t_min is not None:
            t_min = max(t_min, min(data_t_min, -1))
    if args.t_max is not None:
        t_max = args.t_max
    else:
        t_max = max(0, data_t_max) if data_t_max is not None else 0
    if t_min > t_max:
        raise PanelRangeError(f"empty window: t_min {t_min} is after t_max {t_max}")
    return t_min, t_max


def _day_span(days) -> tuple[int, int] | None:
    days = np.asarray(days)
    return (int(days.min()), int(days.max())) if days.size else None


class RunInputs:
    """The input files of one CLI run, each read once and shared by its steps.

    An instance lives as long as one `main()` call, so each run reads its
    files afresh. The tweet CSV is parsed, bot-filtered and classified
    into one tweet table; its flags are built once for the run's calendar
    and its outcome panels once per window. An outcome's estimate is
    computed once per window, for both `estimate` and `placebo`. Callers
    must not mutate what they get back.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self._twitter_panels: dict[tuple[int, int], dict[str, PanelSeries]] = {}
        self._estimates: dict[tuple[str, tuple[int, ...]], OutcomeEstimate] = {}

    @cached_property
    def calendar(self) -> PeriodCalendar:
        return PeriodCalendar(
            anchor_date=self.args.anchor, period_length_days=self.args.period_days
        )

    @cached_property
    def tweets(self) -> TweetTable:
        """The bot-filtered tweets, classified once, as a table."""
        if not self.args.tweets:
            raise ConfigurationError("this command needs --tweets")
        lexicons = load_lexicons(self.args.lexicons)
        tweets = bot_filter(read_tweets_csv(self.args.tweets), lexicons)
        return tweet_table(tweets, lexicons, self.args.anchor)

    @cached_property
    def flags(self) -> UserPeriodFlags:
        return user_period_flags(self.tweets, self.calendar)

    @cached_property
    def events(self) -> tuple[EventColumns, tuple[int, int] | None]:
        """(the retained events, their (first, last) day offsets or None)."""
        if not self.args.events:
            raise ConfigurationError("this command needs --events")
        events = read_events_csv(self.args.events)
        return events, _day_span(events.day - (self.args.anchor - EPOCH).days)

    def twitter_panels(self, pre_factor: int = 1) -> dict[str, PanelSeries]:
        window = _window(self.args, _day_span(self.tweets.day), pre_factor)
        if window not in self._twitter_panels:
            self._twitter_panels[window] = twitter_outcomes(
                self.flags, self.tweets, periods=window
            )
        return self._twitter_panels[window]

    def event_panel(self, pre_factor: int = 1) -> PanelSeries:
        events, span = self.events
        return event_panel(events, self.calendar, periods=_window(self.args, span, pre_factor))

    def prepared(self, outcome: str, pre_factor: int = 1) -> tuple[PanelSeries, EstimatorConfig]:
        """The outcome's estimation panel and period split, from `prepare_outcome`."""
        if outcome == "events":
            panel, users = self.event_panel(pre_factor), None
        else:
            panels = self.twitter_panels(pre_factor)
            panel, users = panels[outcome], panels["users"]
        return prepare_outcome(
            panel, self.args.treated, _transform(self.args, outcome), users=users,
            restriction=SampleRestriction(parameter=self.args.restriction),
        )

    def estimate(self, outcome: str) -> OutcomeEstimate:
        """The outcome's estimate over the run's window."""
        panel, cfg = self.prepared(outcome)
        key = (outcome, panel.periods)
        if key not in self._estimates:
            self._estimates[key] = estimate_outcome(panel, self.args.treated, cfg)
        return self._estimates[key]


def _transform(args, outcome: str) -> str:
    if args.transform == "auto":
        return "level" if outcome in PROPORTION_OUTCOMES else "log1p"
    return args.transform


def _write_effects(stem: Path, prov: str, outcome: str, est: OutcomeEstimate, title: str) -> None:
    """`stem`.csv, the estimate's effects and bands per period, and `stem`.svg, their chart."""
    periods, effects, bands, dist = list(est.panel.periods), est.fit.effects, est.bands, est.dist
    excluded = ";".join(d for d, _ in dist.excluded)
    _write_csv(
        stem.with_suffix(".csv"), prov,
        ["outcome", "period", "effect", "band_lo", "band_hi", "n_placebos", "excluded_donors"],
        [[outcome, t, _fmt(effects[i]), _fmt(bands[0, i]), _fmt(bands[1, i]), dist.n_placebos, excluded]
         for i, t in enumerate(periods)],
    )
    chart = LineChart(title=title, x_label="period", y_label="effect", vline=-0.5, hline=0.0)
    chart.add_band(periods, bands[0], bands[1])
    chart.add_series("effect", periods, effects)
    _write_svg(stem.with_suffix(".svg"), chart)


def _averaged_text(averaged: AveragedEffect) -> str:
    lo, hi = averaged.band
    return f"averaged post effect {averaged.value:+.4f} band [{lo:+.4f}, {hi:+.4f}]"


# ---------------------------------------------------------------------------
# subcommands


def cmd_build_panel(args, inputs: RunInputs) -> None:
    out = Path(args.out) / "panels"
    prov = _provenance(args)
    panels = dict(inputs.twitter_panels()) if args.tweets else {}
    if args.events:
        panels["events"] = inputs.event_panel()
    if not panels:
        raise ConfigurationError("build-panel needs --tweets and/or --events")
    for name in sorted(panels):
        panel = panels[name]
        rows = []
        for ci, country in enumerate(panel.countries):
            for pi, t in enumerate(panel.periods):
                flagged = int(bool(panel.flagged[ci, pi])) if panel.flagged is not None else 0
                rows.append([country, t, _fmt(panel.values[ci, pi]), flagged])
        _write_csv(out / f"{name}.csv", prov, ["country", "period", "value", "flagged"], rows)
    print(f"wrote {len(panels)} panels to {out}")


def cmd_estimate(args, inputs: RunInputs) -> None:
    out = Path(args.out) / "estimate"
    prov = _provenance(args)
    for outcome in args.outcomes:
        est = inputs.estimate(outcome)
        panel, fit, dist, averaged = est.panel, est.fit, est.dist, est.averaged
        _write_effects(out / f"{outcome}_effects", prov, outcome, est, f"Treatment effect: {outcome}")
        donors = [d for d in panel.countries if d != args.treated]
        order = np.argsort(-fit.weights.w, kind="stable")
        _write_csv(
            out / f"{outcome}_weights.csv", prov, ["donor", "weight"],
            [[donors[j], _fmt(fit.weights.w[j])] for j in order],
        )
        _write_csv(
            out / f"{outcome}_averaged.csv", prov,
            ["outcome", "value", "band_lo", "band_hi", "n_placebos"],
            [[outcome, _fmt(averaged.value), _fmt(averaged.band[0]),
              _fmt(averaged.band[1]), dist.n_placebos]],
        )

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
        _write_svg(out / f"{outcome}_paths.svg", paths_chart)
        print(f"{outcome}: {_averaged_text(averaged)}")


def cmd_placebo(args, inputs: RunInputs) -> None:
    out = Path(args.out) / "placebo"
    prov = _provenance(args)
    for outcome in args.outcomes:
        dist = inputs.estimate(outcome).dist
        rows = []
        for di, donor in enumerate(dist.donors):
            for pi, t in enumerate(dist.periods):
                rows.append([
                    outcome, donor, t, _fmt(dist.raw_effects[di, pi]),
                    _fmt(dist.scaled_effects[di, pi]), _fmt(dist.sigmas[di]),
                ])
        _write_csv(
            out / f"{outcome}_placebos.csv", prov,
            ["outcome", "donor", "period", "raw_effect", "scaled_effect", "sigma"], rows,
        )
        _write_csv(
            out / f"{outcome}_excluded.csv", prov, ["donor", "reason"],
            [[d, reason] for d, reason in dist.excluded],
        )
        print(f"{outcome}: {dist.n_placebos} placebos, {len(dist.excluded)} excluded")


def cmd_falsify(args, inputs: RunInputs) -> None:
    out = Path(args.out) / "falsify"
    prov = _provenance(args)
    rows = []
    for outcome in args.outcomes:
        # need the fitting window plus the held-out window of pre data
        panel, _ = inputs.prepared(outcome, pre_factor=2)
        averaged = falsification_run(
            panel, args.treated, args.period_days, cutoff_days=args.cutoff_days
        )
        rows.append([
            outcome, _fmt(averaged.value), _fmt(averaged.band[0]), _fmt(averaged.band[1]),
        ])
        print(
            f"falsification {outcome}: {averaged.value:+.4f} "
            f"band [{averaged.band[0]:+.4f}, {averaged.band[1]:+.4f}]"
        )
    _write_csv(
        out / "falsification.csv", prov,
        ["outcome", "value", "band_lo", "band_hi"], rows,
    )
    chart = LineChart(
        title=f"Falsification: averaged effects over held-out {args.cutoff_days} pre days",
        x_label="outcome index", y_label="averaged effect", hline=0.0,
    )
    xs = list(range(len(rows)))
    chart.add_band(xs, [float(r[2]) for r in rows], [float(r[3]) for r in rows])
    chart.add_series("averaged effect", xs, [float(r[1]) for r in rows])
    _write_svg(out / "falsification.svg", chart)


def cmd_aggregate(args, inputs: RunInputs) -> None:
    out = Path(args.out) / "aggregate"
    prov = _provenance(args)
    if not args.tweets:
        raise ConfigurationError("aggregate needs --tweets")
    if len(args.outcomes) != 1:
        raise ConfigurationError(f"aggregate takes one outcome, got {','.join(args.outcomes)}")
    outcome = args.outcomes[0]
    if outcome not in OUTCOME_NAMES:
        raise ConfigurationError(f"aggregate takes a Twitter outcome, not {outcome!r}")
    span = _day_span(inputs.tweets.day)
    first, last = span if span else (-1, 0)
    if args.t_min is not None:
        pre_days = abs(args.t_min) * args.period_days
    else:
        pre_days = min(100, max(1, -first))
    if args.t_max is not None:
        post_days = (args.t_max + 1) * args.period_days
    else:
        post_days = max(1, last + 1)
    results = aggregation_suite(
        inputs.tweets, args.treated,
        levels=tuple(args.levels),
        restriction=SampleRestriction(parameter=args.restriction),
        outcome=outcome,
        transform=_transform(args, outcome),
        window_days=(pre_days, post_days),
    )
    for level in sorted(results):
        est = results[level]
        _write_effects(out / f"level_{level:02d}_effects", prov, outcome, est,
                       f"{outcome} at {level}-day aggregation")
        print(f"level {level}d: {_averaged_text(est.averaged)}")


def cmd_diffusion(args, inputs: RunInputs) -> None:
    out = Path(args.out) / "diffusion"
    prov = _provenance(args)
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
    _write_csv(out / "phi_curves.csv", prov, ["q", "x", "phi"], curve_rows)
    _write_csv(out / "equilibria.csv", prov, ["q", "x_star", "stability"], eq_rows)
    _write_svg(out / "phi.svg", chart)
    print(f"wrote diffusion curves for {len(qs)} prices to {out}")


def cmd_all_figures(args, inputs: RunInputs) -> None:
    cmd_build_panel(args, inputs)
    cmd_estimate(args, inputs)
    cmd_placebo(args, inputs)
    cmd_falsify(args, inputs)
    if args.tweets:
        saved = args.outcomes
        args.outcomes = ["users"]
        try:
            cmd_aggregate(args, inputs)
        finally:
            args.outcomes = saved
    cmd_diffusion(args, inputs)
    print("all artifacts written")


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="flat key = value config file")
    parser.add_argument("--tweets", type=str, default=None, help="tweet CSV path")
    parser.add_argument("--events", type=str, default=None, help="event CSV path")
    parser.add_argument("--lexicons", type=str, default=None, help="lexicon directory")
    parser.add_argument("--anchor", type=dt.date.fromisoformat, default=dt.date(2018, 7, 1))
    parser.add_argument("--period-days", type=int, default=10, choices=(1, 7, 10, 28))
    parser.add_argument("--treated", type=str, default="UG")
    parser.add_argument("--restriction", type=float, default=0.8)
    parser.add_argument("--t-min", type=int, default=None, help="first panel period (default ~100 pre days)")
    parser.add_argument("--t-max", type=int, default=None, help="last panel period (default: from data)")
    parser.add_argument("--transform", choices=("auto", "level", "log1p"), default="auto")
    parser.add_argument("--out", type=str, default="out")


def _split_outcomes(raw: str) -> list[str]:
    outcomes = [o.strip() for o in raw.split(",") if o.strip()]
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
    if not 0.0 < args.restriction <= 1.0:
        raise ConfigurationError("restriction parameter must be in (0, 1]")
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
    if hasattr(args, "levels") and isinstance(args.levels, str):
        try:
            args.levels = [int(x) for x in args.levels.split(",") if x.strip()]
        except ValueError:
            raise ConfigurationError(
                f"levels must be comma-separated day counts, got {args.levels!r}"
            ) from None
        if not args.levels:
            raise ConfigurationError("levels names no aggregation level")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _resolve(argv)
        args.func(args, RunInputs(args))
        return 0
    except InferenceError as exc:
        print(f"inference error: {exc}", file=sys.stderr)
        return 3
    except (DataError, EmptyPlatformError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
