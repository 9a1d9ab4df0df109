"""Outside-in tracer for the synthpanel package.

The tracer replaces each traced program function with a wrapper in every
``synthpanel`` module namespace that holds a reference to it, so calls
made through ``from ... import`` names (as ``cli`` and ``inference`` do)
are recorded too. Each call becomes one span: name, start, end, parent
span and pass id, kept in memory and written out as JSON at the end of a
run. A traced name that no longer exists in the program is listed as
missing and records zero calls, so a later rename leaves the benchmark
running.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

PACKAGE = "synthpanel"

# Layers are the program's modules; a span belongs to the layer of the
# module that defines its function.
LAYERS = ("cli", "classify", "events", "panel", "synth", "inference", "diffusion", "svgplot")


def _rows(args, kwargs, result):
    return len(result)


def _points(args, kwargs, result):
    return int(np.size(args[0] if args else kwargs["x"]))


def _rendered_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# (layer, attribute path in the layer's module, amount recorded per call)
TRACED = (
    ("cli", "main", None),
    ("cli", "cmd_build_panel", None),
    ("cli", "cmd_estimate", None),
    ("cli", "cmd_placebo", None),
    ("cli", "cmd_falsify", None),
    ("cli", "cmd_aggregate", None),
    ("cli", "cmd_diffusion", None),
    ("cli", "_write_csv", _written_bytes),
    ("cli", "_write_svg", _written_bytes),
    ("classify", "read_tweets_csv", _rows),
    ("classify", "bot_filter", None),
    ("classify", "user_period_flags", None),
    ("classify", "twitter_outcomes", None),
    ("events", "read_events_csv", _rows),
    ("events", "event_panel", None),
    ("panel", "restrict_sample", None),
    ("synth", "fit_weights", None),
    ("synth", "optimize_v", None),
    ("synth", "fit_synth", None),
    ("inference", "run_unit_fit", None),
    ("inference", "placebo_distribution", None),
    ("inference", "estimate_with_placebos", None),
    ("inference", "pointwise_band", None),
    ("inference", "averaged_post_effect", None),
    ("inference", "falsification_run", None),
    ("inference", "aggregation_suite", None),
    ("diffusion", "equilibria", None),
    ("diffusion", "phi", _points),
    ("diffusion", "rect_prob", None),
    ("diffusion", "theorem1_check", None),
    ("diffusion", "agent_simulation", None),
    ("svgplot", "LineChart.render", _rendered_bytes),
)


class Tracer:
    """Span recorder; `install` wraps the program, `uninstall` restores it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, pass_id, amount, arg]
        self.pass_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, amount):
        spans, stack = self.spans, self._stack
        first_arg = name == "classify.read_tweets_csv"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, None, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if amount is not None:
                span[5] = amount(args, kwargs, result)
            if first_arg:
                span[6] = str(args[0] if args else kwargs["path"])
            return result

        return wrapper

    def _namespaces(self):
        return [
            module for key, module in list(sys.modules.items())
            if module is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        namespaces = self._namespaces()
        for layer, path, amount in TRACED:
            name = f"{layer}.{path}"
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            owner_name, _, attr = path.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = vars(owner).get(owner_name)
            fn = vars(owner).get(attr) if owner is not None else None
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn, amount)
            holders = [owner] if owner_name else namespaces
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._restore.append((holder, key, fn))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._restore):
            setattr(holder, key, fn)
        self._restore.clear()

    def write(self, path: Path) -> None:
        records = [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "pass": s[4],
             "amount": s[5]}
            for s in self.spans
        ]
        path.write_text(json.dumps({"missing": self.missing, "spans": records}), encoding="utf-8")


class SpanIndex:
    """Busy time, self time and counts over a finished list of spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
            self.by_name.setdefault(s[0], []).append(i)
        self.self_time = [s[2] - s[1] - c for s, c in zip(spans, child_time)]

    def _has_ancestor(self, index: int, names: set[str]) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def _select(self, names) -> list[int]:
        return [i for name in set(names) for i in self.by_name.get(name, ())]

    def calls(self, *names: str) -> int:
        return len(self._select(names))

    def amount(self, *names: str) -> float:
        return float(sum(self.spans[i][5] or 0 for i in self._select(names)))

    def busy(self, *names: str) -> float:
        """Wall time inside any of `names`, counting nested calls once."""
        chosen = set(names)
        return sum(
            self.spans[i][2] - self.spans[i][1]
            for i in self._select(chosen)
            if not self._has_ancestor(i, chosen)
        )

    def self_s(self, *names: str) -> float:
        """Time in `names` minus the time their traced callees cover."""
        return sum(self.self_time[i] for i in self._select(names))

    def calls_within(self, name: str, ancestor: str) -> int:
        return sum(1 for i in self._select({name}) if self._has_ancestor(i, {ancestor}))

    def layer_names(self, layer: str) -> list[str]:
        return [f"{layer}.{path}" for lay, path, _ in TRACED if lay == layer]

    def distinct_args(self, name: str) -> int:
        return len({self.spans[i][6] for i in self._select({name})})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name, unit and direction of every per-layer metric, in report order
LAYER_METRICS = (
    ("classify.read_calls", "count", "lower"),
    ("classify.rows_parsed", "count", "lower"),
    ("classify.parses_per_input", "ratio", "lower"),
    ("classify.read_s", "s", "lower"),
    ("classify.bot_filter_s", "s", "lower"),
    ("classify.flags_calls", "count", "lower"),
    ("classify.flags_s", "s", "lower"),
    ("classify.outcomes_calls", "count", "lower"),
    ("classify.outcomes_s", "s", "lower"),
    ("classify.share_of_run", "%", "lower"),
    ("events.read_s", "s", "lower"),
    ("events.panel_s", "s", "lower"),
    ("panel.restrict_s", "s", "lower"),
    ("synth.fit_calls", "count", "lower"),
    ("synth.fit_s", "s", "lower"),
    ("synth.fit_ms_per_call", "ms", "lower"),
    ("synth.v_search_calls", "count", "lower"),
    ("synth.v_search_s", "s", "lower"),
    ("synth.v_search_self_s", "s", "lower"),
    ("synth.fits_per_v_search", "ratio", "lower"),
    ("inference.placebo_calls", "count", "lower"),
    ("inference.unit_fits", "count", "lower"),
    ("inference.placebo_s", "s", "lower"),
    ("inference.band_s", "s", "lower"),
    ("inference.aggregation_self_s", "s", "lower"),
    ("diffusion.equilibria_calls", "count", "lower"),
    ("diffusion.equilibria_s", "s", "lower"),
    ("diffusion.phi_calls", "count", "lower"),
    ("diffusion.phi_points", "count", "lower"),
    ("diffusion.phi_s", "s", "lower"),
    ("diffusion.theorem1_s", "s", "lower"),
    ("diffusion.simulation_s", "s", "lower"),
    ("svgplot.render_s", "s", "lower"),
    ("svgplot.bytes", "bytes", "lower"),
    ("cli.build_panel_s", "s", "lower"),
    ("cli.estimate_s", "s", "lower"),
    ("cli.placebo_s", "s", "lower"),
    ("cli.falsify_s", "s", "lower"),
    ("cli.aggregate_s", "s", "lower"),
    ("cli.diffusion_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    *(
        (f"{layer}.{kind}", unit, "lower")
        for layer in LAYERS
        for kind, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
    ),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.missing", "count", "lower"),
)


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took `traced_s` seconds."""
    ix = SpanIndex(tracer.spans)
    reads = ix.calls("classify.read_tweets_csv")
    fits = ix.calls("synth.fit_weights")
    searches = ix.calls("synth.optimize_v")
    classify_busy = ix.busy(*ix.layer_names("classify"))
    values = {
        "classify.read_calls": reads,
        "classify.rows_parsed": ix.amount("classify.read_tweets_csv"),
        "classify.parses_per_input": _ratio(reads, ix.distinct_args("classify.read_tweets_csv")),
        "classify.read_s": ix.busy("classify.read_tweets_csv"),
        "classify.bot_filter_s": ix.busy("classify.bot_filter"),
        "classify.flags_calls": ix.calls("classify.user_period_flags"),
        "classify.flags_s": ix.busy("classify.user_period_flags"),
        "classify.outcomes_calls": ix.calls("classify.twitter_outcomes"),
        "classify.outcomes_s": ix.busy("classify.twitter_outcomes"),
        "classify.share_of_run": 100.0 * _ratio(classify_busy, traced_s),
        "events.read_s": ix.busy("events.read_events_csv"),
        "events.panel_s": ix.busy("events.event_panel"),
        "panel.restrict_s": ix.busy("panel.restrict_sample"),
        "synth.fit_calls": fits,
        "synth.fit_s": ix.busy("synth.fit_weights"),
        "synth.fit_ms_per_call": 1000.0 * _ratio(ix.busy("synth.fit_weights"), fits),
        "synth.v_search_calls": searches,
        "synth.v_search_s": ix.busy("synth.optimize_v"),
        "synth.v_search_self_s": ix.self_s("synth.optimize_v"),
        "synth.fits_per_v_search": _ratio(
            ix.calls_within("synth.fit_weights", "synth.optimize_v"), searches
        ),
        "inference.placebo_calls": ix.calls("inference.placebo_distribution"),
        "inference.unit_fits": ix.calls("inference.run_unit_fit"),
        "inference.placebo_s": ix.busy("inference.placebo_distribution"),
        "inference.band_s": ix.busy("inference.pointwise_band", "inference.averaged_post_effect"),
        "inference.aggregation_self_s": ix.self_s("inference.aggregation_suite"),
        "diffusion.equilibria_calls": ix.calls("diffusion.equilibria"),
        "diffusion.equilibria_s": ix.busy("diffusion.equilibria"),
        "diffusion.phi_calls": ix.calls("diffusion.phi"),
        "diffusion.phi_points": ix.amount("diffusion.phi"),
        "diffusion.phi_s": ix.busy("diffusion.phi"),
        "diffusion.theorem1_s": ix.busy("diffusion.theorem1_check"),
        "diffusion.simulation_s": ix.busy("diffusion.agent_simulation"),
        "svgplot.render_s": ix.busy("svgplot.LineChart.render"),
        "svgplot.bytes": ix.amount("svgplot.LineChart.render"),
        "cli.build_panel_s": ix.busy("cli.cmd_build_panel"),
        "cli.estimate_s": ix.busy("cli.cmd_estimate"),
        "cli.placebo_s": ix.busy("cli.cmd_placebo"),
        "cli.falsify_s": ix.busy("cli.cmd_falsify"),
        "cli.aggregate_s": ix.busy("cli.cmd_aggregate"),
        "cli.diffusion_s": ix.busy("cli.cmd_diffusion"),
        "cli.write_s": ix.busy("cli._write_csv", "cli._write_svg"),
        "cli.bytes_written": ix.amount("cli._write_csv", "cli._write_svg"),
    }
    for layer in LAYERS:
        names = ix.layer_names(layer)
        values[f"{layer}.calls"] = ix.calls(*names)
        values[f"{layer}.busy_s"] = ix.busy(*names)
        values[f"{layer}.self_s"] = ix.self_s(*names)
    values["trace.run_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_pct"] = 100.0 * _ratio(traced_s - untraced_s, untraced_s)
    values["trace.spans"] = len(tracer.spans)
    values["trace.missing"] = len(tracer.missing)
    return values
