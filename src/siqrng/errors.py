"""Exception types shared across the package.

The CLI maps these onto process exit codes; library users catch them
directly.
"""


class SiqrngError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SiqrngError):
    """Bad configuration: unknown key, unparsable value, missing argument."""


class EstimationAbort(SiqrngError):
    """No randomness can be certified (non-positive final length, or an
    empty check sample). The extractor must not emit bits."""


class SuiteFailure(SiqrngError):
    """The statistical test battery failed the configured pass policy."""


class RunTooLargeError(SiqrngError):
    """A run's pulse arrays cannot be allocated."""


class FormatError(SiqrngError):
    """Malformed or truncated input/output file."""


class CalibrationError(SiqrngError):
    """Calibration input did not satisfy its gating criterion."""


class InsufficientBitsError(SiqrngError):
    """A statistical test received fewer bits than its declared minimum."""


class ConvolutionPrecisionError(SiqrngError):
    """The transform-based convolution could not be verified exact."""


class UnreachableTargetError(SiqrngError):
    """No deviation parameter on the search grid meets the target bound."""


class NonUnimodalError(SiqrngError):
    """Grid pre-scan found more than one local maximum of the rate curve."""
