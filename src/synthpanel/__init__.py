"""Synthetic-control panel pipeline with scaled-placebo inference and a
platform-joining diffusion model."""

__version__ = "0.1.0"

from .panel import (
    PanelSeries,
    PeriodCalendar,
    SampleRestriction,
    normalize_at_reference,
    restrict_sample,
)
from .classify import (
    PhraseLexicon,
    TweetColumns,
    TweetTable,
    UserPeriodFlags,
    bot_filter,
    load_lexicons,
    match_phrases,
    read_tweets_csv,
    tweet_table,
    twitter_outcomes,
    user_period_flags,
)
from .events import EventColumns, event_panel, read_events_csv
from .synth import SynthFit, SynthProblem, WeightVector, effect_series, fit_synth, fit_weights, optimize_v
from .inference import (
    AveragedEffect,
    EstimatorConfig,
    PlaceboDistribution,
    aggregation_suite,
    averaged_post_effect,
    estimate_with_placebos,
    falsification_run,
    placebo_distribution,
    pointwise_band,
)
from .diffusion import (
    EquilibriumSet,
    PopulationParams,
    ResponseFunction,
    SimulationResult,
    Theorem1Report,
    agent_simulation,
    equilibria,
    phi,
    rect_prob,
    theorem1_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
