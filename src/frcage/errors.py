"""Exception types shared across the package.

Class names double as the stable error labels surfaced by the CLI.
"""


class FrcageError(Exception):
    """Base class for all package-specific errors."""


class NotPrimePower(FrcageError, ValueError):
    """q has two distinct prime factors, or q < 2."""


class InvalidParameter(FrcageError, ValueError):
    """An iteration count or setting outside its valid range."""


class InvalidDegrees(FrcageError, ValueError):
    """Degree pair violates l >= k >= 2."""


class ResourceLimit(FrcageError, RuntimeError):
    """A request exceeds the configured edge cap, or its output exceeds
    Python's int-to-str digit limit."""


class OutOfRange(FrcageError, ValueError):
    """Chunk-count argument outside the valid fill window."""


class NodeOutOfRange(FrcageError, IndexError):
    """Node id outside the design's node range."""


class NotCanonical(FrcageError, ValueError):
    """Input design does not match this library's canonical construction."""


class NoSurvivingReplica(FrcageError, ValueError):
    """A chunk on the failed node has no replica anywhere else."""


class InvalidDesign(FrcageError, ValueError):
    """Serialized design is malformed or internally inconsistent."""
