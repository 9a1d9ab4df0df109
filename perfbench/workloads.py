"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup`, runs one timed
pass of operations in `run_pass` (an operation is one CLI invocation or
one library call), fingerprints each operation's output in `digest`, and
checks the first pass's outputs against computations made outside the
program in `check`. Program functions are always called through their
module, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import string
import sys
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from synthpanel import cli, demo, diffusion, inference
from synthpanel.classify import TWEET_CSV_COLUMNS
from synthpanel.events import EVENT_CSV_COLUMNS
from synthpanel.panel import PanelSeries

import checks


@dataclasses.dataclass
class Op:
    """One attempted operation; `payload` is what digest and checks read."""

    key: str
    ok: bool
    payload: object = None


def run_cli(key: str, argv: list[str]) -> Op:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    if code != 0:
        sys.stderr.write(f"{key}: exit {code}: {err.getvalue().strip()}\n")
    return Op(key, code == 0, key)


def run_call(key: str, fn, *args, **kwargs) -> Op:
    try:
        return Op(key, True, fn(*args, **kwargs))
    except Exception:
        sys.stderr.write(f"{key}: {traceback.format_exc()}\n")
        return Op(key, False)


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def file_manifest(*paths: Path) -> list[tuple[str, int, str]]:
    """(name, data rows, SHA-256) of each generated input file."""
    out = []
    for path in paths:
        data = path.read_bytes()
        out.append((path.name, data.count(b"\n") - 1, hashlib.sha256(data).hexdigest()))
    return out


CODE_POOL = tuple(a + b for a in string.ascii_uppercase for b in string.ascii_uppercase)


def relabelled_corpus(spec: demo.CorpusSpec, seed: int, directory: Path, events: bool) -> list[Path]:
    """Write the demo corpus of `spec` with its donor countries renamed by `seed`.

    The corpus itself is one fixed draw. V-search cost per unit is bimodal
    (about 22 or 80+ QP solves, depending on the data), so a fresh corpus
    per seed moves a pass by 10-25%, more than a useful bound can hold.
    The renaming keeps the alphabetical order of all countries, so the
    solver sees the same problems in the same donor order and does the
    same work on every seed, while every input byte changes. The treated
    country keeps its code, so the CLI's default --treated applies.
    """
    rng = np.random.default_rng(seed)
    pool = [c for c in CODE_POOL if c not in spec.countries]
    donors = sorted(c for c in spec.countries if c != spec.treated)
    mapping = {spec.treated: spec.treated}
    for below in (True, False):  # donors before the treated code get codes before it, and so on
        side = [c for c in donors if (c < spec.treated) == below]
        codes = [c for c in pool if (c < spec.treated) == below]
        picked = sorted(codes[i] for i in rng.choice(len(codes), len(side), replace=False))
        mapping.update(zip(side, picked))
    directory.mkdir(parents=True, exist_ok=True)
    tweet_rows = demo.generate_tweet_rows(spec)
    for row in tweet_rows:  # user ids start with the lowercased country code
        row[1] = mapping[row[3]].lower() + row[1][2:]
        row[3] = mapping[row[3]]
    written = [(directory / "tweets.csv", TWEET_CSV_COLUMNS, tweet_rows)]
    if events:
        event_rows = demo.generate_event_rows(spec)
        for row in event_rows:
            row[1] = mapping[row[1]]
        written.append((directory / "events.csv", EVENT_CSV_COLUMNS, sorted(event_rows)))
    for path, header, rows in written:
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(header)
            writer.writerows(rows)
    return [path for path, _, _ in written]


def bot_phrases() -> list[str]:
    return checks.read_phrases(Path(demo.__file__).parent / "lexicons" / "v1" / "bot.txt")


# ---------------------------------------------------------------------------
# figures: all-figures on a default-shaped demo corpus


class Figures:
    name = "figures"
    spec = demo.CorpusSpec(base_users=3.0)  # the default corpus at one sixth of its volume

    def setup(self, seed: int, work: Path):
        self.anchor = self.spec.anchor
        self.treated = self.spec.treated
        self.tweets, self.events = relabelled_corpus(self.spec, seed, work / "inputs", events=True)
        return file_manifest(self.tweets, self.events)

    def run_pass(self, out: Path) -> list[Op]:
        return [run_cli("all-figures", [
            "all-figures", "--tweets", str(self.tweets), "--events", str(self.events),
            "--out", str(out / "all-figures"),
        ])]

    def digest(self, op: Op, out: Path) -> str:
        return tree_digest(out / op.payload)

    def check(self, out: Path, ops: list[Op]) -> dict[str, list[str]]:
        root = out / "all-figures"
        problems = []
        users, rows = checks.raw_cells(self.tweets, bot_phrases(), self.anchor, 10)
        countries = {c for c, _ in users}
        for name, expected in (("users", users), ("tweets", rows)):
            written = checks.panel_from_csv(root / "panels" / f"{name}.csv")
            if {c for c, _ in written} != countries:
                problems.append(f"panels/{name}.csv: countries differ from the raw rows")
            bad = [cell for cell, v in written.items() if v != expected.get(cell, 0)]
            if bad:
                problems.append(f"panels/{name}.csv: {len(bad)} cells differ from raw counts, e.g. {bad[0]}")
        for effects_path in sorted((root / "estimate").glob("*_effects.csv")):
            outcome = effects_path.name[: -len("_effects.csv")]
            problems += self._check_estimate(root, outcome)
        for path in [*(root / "estimate").glob("*_effects.csv"), *(root / "estimate").glob("*_averaged.csv"),
                     root / "falsify" / "falsification.csv", *(root / "aggregate").glob("level_*_effects.csv")]:
            for r in checks.read_output_csv(path):
                if float(r["band_lo"]) > float(r["band_hi"]):
                    problems.append(f"{path.name}: band_lo > band_hi")
                    break
        return {"all-figures": problems}

    def _check_estimate(self, root: Path, outcome: str) -> list[str]:
        problems = []
        panel = checks.panel_from_csv(root / "panels" / f"{outcome}.csv")
        if outcome not in checks.PROPORTION_OUTCOMES:
            panel = {cell: math.log1p(v) for cell, v in panel.items()}
        weights = {r["donor"]: float(r["weight"]) for r in checks.read_output_csv(root / "estimate" / f"{outcome}_weights.csv")}
        w = np.array(list(weights.values()))
        if w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-9:
            problems.append(f"{outcome}: weights off the simplex (min {w.min():.3e}, sum {w.sum():.12f})")
        effects = checks.read_output_csv(root / "estimate" / f"{outcome}_effects.csv")
        worst = 0.0
        pre = []
        for r in effects:
            t = int(r["period"])
            synthetic = sum(wd * panel[(d, t)] for d, wd in weights.items())
            expected = panel[(self.treated, t)] - synthetic
            worst = max(worst, abs(float(r["effect"]) - expected) / (1.0 + abs(expected)))
            if t < 0:
                pre.append(float(r["effect"]))
        if worst > 1e-9:
            problems.append(f"{outcome}: effects differ from treated - sum w*donor by {worst:.2e}")
        sigma_treated = math.sqrt(np.mean(np.square(pre)))
        by_donor = defaultdict(list)
        for r in checks.read_output_csv(root / "placebo" / f"{outcome}_placebos.csv"):
            by_donor[r["donor"]].append(r)
        for donor, donor_rows in by_donor.items():
            sigma = float(donor_rows[0]["sigma"])
            raw_pre = [float(r["raw_effect"]) for r in donor_rows if int(r["period"]) < 0]
            rmse = math.sqrt(np.mean(np.square(raw_pre)))
            if abs(sigma - rmse) > 1e-9 * rmse:
                problems.append(f"{outcome}/{donor}: sigma {sigma!r} is not the pre-period RMSE {rmse!r}")
            for r in donor_rows:
                expected = float(r["raw_effect"]) * sigma_treated / sigma
                if abs(float(r["scaled_effect"]) - expected) > 1e-9 * (1.0 + abs(expected)):
                    problems.append(f"{outcome}/{donor}: scaled effect is not raw * sigma_treated / sigma")
                    break
        return problems


# ---------------------------------------------------------------------------
# aggregate-wide: 1/7/10/28-day aggregation over a wide donor pool


class AggregateWide:
    name = "aggregate-wide"
    levels = (1, 7, 10, 28)
    t_min, t_max = -3, 2  # in 10-day periods: 30 pre days, 30 post days
    spec = demo.CorpusSpec(
        countries=("UG", "KE", "GH", "RW", "TZ", "ZM", "ZW", "SN", "CM", "ET",
                   "NG", "MW", "MZ", "BW", "NA", "AO", "CD", "CI", "ML", "BF"),
        base_users=1.0,
    )

    def setup(self, seed: int, work: Path):
        self.anchor = self.spec.anchor
        self.treated = self.spec.treated
        [self.tweets] = relabelled_corpus(self.spec, seed, work / "inputs", events=False)
        return file_manifest(self.tweets)

    def run_pass(self, out: Path) -> list[Op]:
        return [run_cli("aggregate", [
            "aggregate", "--tweets", str(self.tweets),
            "--levels", ",".join(map(str, self.levels)),
            "--t-min", str(self.t_min), "--t-max", str(self.t_max), "--out", str(out / "aggregate"),
        ])]

    def digest(self, op: Op, out: Path) -> str:
        return tree_digest(out / op.payload)

    def check(self, out: Path, ops: list[Op]) -> dict[str, list[str]]:
        problems = []
        pre_days, post_days = -self.t_min * 10, (self.t_max + 1) * 10
        for level in self.levels:
            users, _ = checks.raw_cells(self.tweets, bot_phrases(), self.anchor, level)
            lo, hi = -math.ceil(pre_days / level), math.ceil(post_days / level) - 1
            countries = sorted({c for c, _ in users})
            periods = list(range(lo, hi + 1))
            Y = np.array([[users.get((c, t), 0) for t in periods] for c in countries], dtype=float)
            averages = Y.mean(axis=1)
            quota = min(len(countries), max(1, math.ceil(0.8 * len(countries))))
            threshold = np.sort(averages)[::-1][quota - 1]
            kept = [c for c, avg in zip(countries, averages) if avg >= threshold]
            Y = np.log1p(Y[[countries.index(c) for c in kept]])
            treated = Y[kept.index(self.treated)]
            donors = np.delete(Y, kept.index(self.treated), axis=0).T  # periods x donors
            rows = checks.read_output_csv(out / "aggregate" / "aggregate" / f"level_{level:02d}_effects.csv")
            if [int(r["period"]) for r in rows] != periods:
                problems.append(f"level {level}: periods differ from {lo}..{hi}")
                continue
            effects = np.array([float(r["effect"]) for r in rows])
            gap = checks.in_hull_residual(donors, treated - effects)
            if gap > 1e-8:
                problems.append(f"level {level}: synthetic path is {gap:.2e} outside the donor hull")
            pre = np.array(periods) < 0
            mspe = float(np.mean(effects[pre] ** 2))
            w = checks.simplex_lsq(donors[pre], treated[pre])
            optimum = float(np.mean((treated[pre] - donors[pre] @ w) ** 2))
            tol = 1e-10 + 1e-7 * optimum
            if level in (10, 28) and abs(mspe - optimum) > tol:
                problems.append(f"level {level}: pre MSPE {mspe!r} differs from the simplex optimum {optimum!r}")
            if mspe < optimum - tol:
                problems.append(f"level {level}: pre MSPE {mspe!r} beats the simplex optimum {optimum!r}")
        return {"aggregate": problems}


# ---------------------------------------------------------------------------
# montecarlo: estimate_with_placebos on factor-model panels


def factor_panel(rng: np.random.Generator, tau: float, n_donors: int = 20,
                 n_pre: int = 20, n_post: int = 10, noise_sd: float = 0.02) -> PanelSeries:
    """Two-factor panel whose first unit lies in the hull of three donors.

    Outcomes are a common trend plus donor loadings on two smooth factors
    plus noise; the first unit's loadings are a convex mix of three
    donors', and tau is added to its post periods.
    """
    T = n_pre + n_post
    s = np.arange(-n_pre, n_post) / n_pre
    trend = 0.3 * np.sin(2 * np.pi * (s * rng.uniform(0.5, 1.5) + rng.uniform())) + rng.uniform(-0.2, 0.2) * s
    factors = np.column_stack([
        rng.uniform(0.5, 1.0) + rng.uniform(-0.4, 0.4) * s
        + 0.6 * np.sin(2 * np.pi * (2.0 * s * rng.uniform(0.8, 1.2) + rng.uniform()))
        for _ in range(2)
    ])
    loadings = rng.uniform(0.0, 1.0, (n_donors, 2))
    mix = rng.dirichlet(np.ones(3)) @ loadings[rng.choice(n_donors, size=3, replace=False)]
    Y = trend + np.vstack([mix, loadings]) @ factors.T + rng.normal(0.0, noise_sd, (n_donors + 1, T))
    Y[0, n_pre:] += tau
    units = tuple(f"U{i:02d}" for i in range(n_donors + 1))
    return PanelSeries("factor_outcome", units, tuple(range(-n_pre, n_post)), Y)


class MonteCarlo:
    name = "montecarlo"
    taus = (0.0, -0.05, -0.10, -0.25)
    panels_per_tau = 20
    treated = "U00"

    def setup(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        self.panels = [(tau, factor_panel(rng, tau)) for tau in self.taus for _ in range(self.panels_per_tau)]
        periods = self.panels[0][1].periods
        pre = tuple(t for t in periods if t < 0)
        self.cfg = inference.EstimatorConfig(
            fit_pre_periods=pre, all_pre_periods=pre, post_periods=tuple(t for t in periods if t >= 0)
        )
        h = hashlib.sha256()
        for _, panel in self.panels:
            h.update(panel.values.tobytes())
        return [("factor_panels", len(self.panels), h.hexdigest())]

    def run_pass(self, out: Path) -> list[Op]:
        ops = []
        for i, (_, panel) in enumerate(self.panels):
            fit_op = run_call(f"estimate/{i}", inference.estimate_with_placebos, panel, self.treated, self.cfg)
            ops.append(fit_op)
            if fit_op.ok:
                ops.append(run_call(f"average/{i}", inference.averaged_post_effect, *fit_op.payload))
            else:
                ops.append(Op(f"average/{i}", False))
        return ops

    def digest(self, op: Op, out: Path) -> str:
        h = hashlib.sha256()
        if op.key.startswith("estimate/"):
            fit, dist = op.payload
            for a in (fit.weights.w, fit.effects, dist.raw_effects, dist.scaled_effects, dist.sigmas):
                h.update(np.ascontiguousarray(a).tobytes())
        elif op.payload is not None:
            h.update(repr((op.payload.value, op.payload.band)).encode())
        return h.hexdigest()

    def check(self, out: Path, ops: list[Op]) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {}
        by_key = {op.key: op for op in ops}
        estimates = defaultdict(list)
        for i, (tau, panel) in enumerate(self.panels):
            key = f"estimate/{i}"
            fit, dist = by_key[key].payload
            problems[key] = self._check_fits(panel, fit, dist)
            estimates[tau].append(by_key[f"average/{i}"].payload.value)
        for tau, values in estimates.items():
            mean = float(np.mean(values))
            if abs(mean - tau) > 0.01:
                first = f"average/{self.taus.index(tau) * self.panels_per_tau}"
                problems.setdefault(first, []).append(f"tau {tau}: mean estimate {mean:.4f} is not within 0.01")
        return problems

    def _check_fits(self, panel: PanelSeries, fit, dist) -> list[str]:
        pre = [panel.period_index(t) for t in self.cfg.fit_pre_periods]
        units = list(panel.countries)
        problems = []
        X = np.array([panel.series(u)[pre] for u in units if u != self.treated]).T
        x0 = panel.series(self.treated)[pre]
        worst = checks.weights_kkt_violation(X, x0, fit.weights.w)
        if worst > 1e-8:
            problems.append(f"treated fit violates the simplex KKT conditions by {worst:.2e}")
        donors = [u for u in units if u != self.treated]
        for row, donor in enumerate(dist.donors):
            pool = [d for d in donors if d != donor]
            Xp = np.array([panel.series(d)[pre] for d in pool]).T
            xd = panel.series(donor)[pre]
            r = dist.raw_effects[row][pre]
            gap = checks.kkt_gap(Xp, xd, r)
            hull = checks.in_hull_residual(Xp, xd - r)
            if gap > 1e-8 or hull > 1e-8:
                problems.append(f"placebo fit for {donor}: KKT gap {gap:.2e}, hull residual {hull:.2e}")
        return problems


# ---------------------------------------------------------------------------
# diffusion: price sweeps, Theorem 1 checks, agent simulations, rect_prob


class Diffusion:
    name = "diffusion"
    rhos = (-0.95, -0.5, 0.0, 0.5, 0.95)  # |rho| > 0.925 takes _bvn_upper's other branch
    responses = {
        "linear": {"slope": 2.0},
        "logistic": {"scale": 1.5, "steepness": 8.0, "midpoint": 0.5},
    }
    sigma_c, sigma_w = 0.3, 1.0  # a narrow cost spread puts a tipping point between two stable points
    q_steps = 5
    price_pairs = ((0.1, 0.6), (0.4, 0.9))
    simulated_rhos = (-0.5, 0.5)
    n_agents = 200_000
    rect_rhos = tuple(np.round(np.linspace(-0.99, 0.99, 12), 4))
    rect_points = 40

    def setup(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        self.mu_c = round(float(rng.uniform(0.95, 1.05)), 6)
        self.mu_w = round(float(rng.uniform(0.4, 0.6)), 6)
        self.sim_q = round(float(rng.uniform(0.2, 0.6)), 6)
        self.sim_seed = int(rng.integers(1, 1_000_000))
        self.rect_inputs = [
            (rho, rng.normal(self.mu_c, 1.5 * self.sigma_c, self.rect_points),
             rng.normal(self.mu_w, 1.5 * self.sigma_w, self.rect_points))
            for rho in self.rect_rhos
        ]
        params = [self.mu_c, self.mu_w, self.sim_q, self.sim_seed]
        rect = [[float(rho), ti, ai] for rho, t, a in self.rect_inputs for ti, ai in zip(t, a)]
        return [
            (name, len(rows), hashlib.sha256(json.dumps(rows).encode()).hexdigest())
            for name, rows in (("population_params", params), ("rect_points", rect))
        ]

    def params(self, rho: float):
        return diffusion.PopulationParams(self.mu_c, self.mu_w, self.sigma_c, self.sigma_w, rho)

    def response(self, form: str):
        p = self.responses[form]
        if form == "linear":
            return diffusion.ResponseFunction.linear(p["slope"])
        return diffusion.ResponseFunction.logistic(p["scale"], p["steepness"], p["midpoint"])

    def run_pass(self, out: Path) -> list[Op]:
        ops = []
        for rho in self.rhos:
            for form, p in self.responses.items():
                key = f"sweep/{form}/{rho}"
                argv = ["diffusion", "--rho", str(rho), "--response", form,
                        "--mu-c", str(self.mu_c), "--mu-w", str(self.mu_w),
                        "--sigma-c", str(self.sigma_c), "--sigma-w", str(self.sigma_w),
                        "--q-min", "0", "--q-max", "1", "--q-steps", str(self.q_steps),
                        "--out", str(out / key)]
                for name, value in p.items():
                    argv += [f"--{name}", str(value)]
                ops.append(run_cli(key, argv))
        linear = self.response("linear")
        for rho in self.rhos:
            for q, q_high in self.price_pairs:
                ops.append(run_call(f"theorem1/{rho}/{q}", diffusion.theorem1_check,
                                    q, q_high, linear, self.params(rho)))
        for rho in self.simulated_rhos:
            params = self.params(rho)
            ops.append(run_call(f"equilibria/{rho}", diffusion.equilibria, self.sim_q, linear, params))
            ops.append(run_call(f"simulation/{rho}", diffusion.agent_simulation,
                                self.n_agents, self.sim_q, linear, params, self.sim_seed))
        for rho, t, a in self.rect_inputs:
            ops.append(run_call(f"rect/{rho}", diffusion.rect_prob, t, a, self.params(float(rho))))
        return ops

    def digest(self, op: Op, out: Path) -> str:
        if op.key.startswith("sweep/"):
            return tree_digest(out / op.payload)
        payload = op.payload
        if op.key.startswith("theorem1/"):
            payload = (payload.passed, payload.max_violation, payload.equilibria_low.fixed_points,
                       payload.equilibria_high.fixed_points)
        elif op.key.startswith("equilibria/"):
            payload = (payload.fixed_points, payload.labels)
        elif op.key.startswith("rect/"):
            payload = np.asarray(payload).tobytes()
        return hashlib.sha256(repr(payload).encode()).hexdigest()

    def own_phi(self, rho: float, form: str) -> checks.OwnPhi:
        return checks.OwnPhi(self.mu_c, self.mu_w, self.sigma_c, self.sigma_w, rho,
                             checks.response_fn(form, self.responses[form]))

    def check(self, out: Path, ops: list[Op]) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {}
        by_key = {op.key: op for op in ops}
        for rho in self.rhos:
            for form in self.responses:
                key = f"sweep/{form}/{rho}"
                phi = self.own_phi(rho, form)
                found = problems.setdefault(key, [])
                by_q = defaultdict(list)
                for r in checks.read_output_csv(out / key / "diffusion" / "equilibria.csv"):
                    by_q[float(r["q"])].append((float(r["x_star"]), r["stability"]))
                if len(by_q) != self.q_steps:
                    found.append(f"equilibria for {len(by_q)} prices, expected {self.q_steps}")
                for q, rows in by_q.items():
                    found += checks.fixed_point_problems(phi, q, *zip(*rows))
                curve = checks.read_output_csv(out / key / "diffusion" / "phi_curves.csv")
                for r in curve[:: max(1, len(curve) // 25)]:
                    got, expected = float(r["phi"]), phi(float(r["x"]), float(r["q"]))
                    if abs(got - expected) > 1e-8:
                        found.append(f"phi({r['x']}) at q={r['q']} is {got!r}, scipy gives {expected!r}")
                        break
        for rho in self.rhos:
            phi = self.own_phi(rho, "linear")
            for q, q_high in self.price_pairs:
                key = f"theorem1/{rho}/{q}"
                report = by_key[key].payload
                found = problems.setdefault(key, [])
                if not report.passed:
                    found.append(f"theorem1_check reports a violation of {report.max_violation:.2e}")
                xs = np.linspace(0.05, 0.95, 7)
                diffs = np.array([phi(x, q_high) - phi(x, q) for x in xs])
                if (rho < 0 and diffs.min() < -1e-9) or (rho > 0 and diffs.max() > 1e-9) \
                        or (rho == 0 and np.abs(diffs).max() > 1e-9):
                    found.append(f"scipy phi moves against the covariance sign: {diffs.round(12)}")
        for rho in self.simulated_rhos:
            eq = by_key[f"equilibria/{rho}"].payload
            sim = by_key[f"simulation/{rho}"].payload
            found = problems.setdefault(f"simulation/{rho}", [])
            found += checks.fixed_point_problems(self.own_phi(rho, "linear"), self.sim_q, eq.fixed_points, eq.labels)
            stable = eq.stable_points()
            for limit in (sim.limit_from_zero, sim.limit_from_one):
                if sim.empty_platform or not stable or min(abs(limit - s) for s in stable) > 0.01:
                    found.append(f"agent limit {limit:.4f} is not within 0.01 of a stable point {stable}")
        for rho, t, a in self.rect_inputs:
            key = f"rect/{rho}"
            own = checks.OwnPhi(self.mu_c, self.mu_w, self.sigma_c, self.sigma_w, float(rho), None)
            got = np.asarray(by_key[key].payload)
            worst = max(abs(g - own.rect(ti, ai)) for g, ti, ai in zip(got, t, a))
            if worst > 1e-9:
                problems[key] = [f"rect_prob differs from Phi(h) - Phi2(h, k) by {worst:.2e}"]
        return problems


WORKLOADS = {w.name: w for w in (Figures, AggregateWide, MonteCarlo, Diffusion)}
