"""Exception types shared across the package.

The command line tool maps these to exit codes: argument problems
(ArgumentError and its subclasses, and LoopContractionError) exit with
2, size-guard refusals with 3, failed internal cross-checks with 4.
"""


class TropicaError(Exception):
    """Base class for all package-specific errors."""


class ArgumentError(TropicaError):
    """Invalid or inconsistent arguments."""


class DegenerateInputError(ArgumentError):
    """Structurally valid input outside the supported non-degenerate range."""


class SizeGuardError(TropicaError):
    """A size guard refused the job; the CLI's --force runs it anyway."""


class CrossCheckError(TropicaError):
    """Two independent computation routes disagreed."""


class LoopContractionError(TropicaError):
    """Contraction of a loop edge was requested where it is undefined."""
