"""Exception hierarchy shared across the pipeline.

DataError maps to CLI exit code 2, InferenceError to exit code 3.
"""


class SynthPanelError(Exception):
    """Base class for all package errors."""


class DataError(SynthPanelError):
    """Invalid, missing, or inconsistent input data."""


class SchemaError(DataError):
    """CSV schema violation; message carries the offending row number."""


class PanelRangeError(DataError):
    """Timestamp, period, or window outside the supported range."""


class InsufficientDonorsError(DataError):
    """Too few countries survive the sample restriction."""


class ConfigurationError(DataError):
    """Run configuration that cannot be satisfied by the inputs."""


class InferenceError(SynthPanelError):
    """Placebo inference refused or degenerate."""


class EmptyPlatformError(SynthPanelError):
    """Platform participation probability vanished in the diffusion model."""
