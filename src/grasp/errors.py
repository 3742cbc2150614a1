"""Exception types shared across the package."""


class GraspError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GraspError):
    """Malformed input file: bad JSON, bad CSV row, wrong row count, missing column."""


class ValidationError(GraspError):
    """Structurally parseable input that violates a semantic rule.

    `field` names the offending key or flag so callers can point at it.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class EmptyFleet(GraspError):
    """A scheduling decision was requested with no data centers registered."""


class AlreadyConnected(GraspError):
    """A switch sent a second connect event."""


class UnknownSwitch(GraspError):
    """A packet-in arrived from a switch that never connected."""


class NoPath(GraspError):
    """No discovered path between two switches."""


class ScriptError(GraspError):
    """A scenario script references unknown nodes or has unusable times."""
