"""Exception types shared across the package."""


class GraspError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GraspError):
    """Malformed input file: bad JSON, bad CSV row, wrong row count, missing column."""


class ValidationError(GraspError):
    """Parseable input of the wrong shape or value.

    `field` names the offending flag, or the JSON path of the offending
    value (`links[0]`, `clients[0].flows[2].open_at`), and `problem` says
    what is wrong with it.
    """

    def __init__(self, field, problem):
        self.field = field
        self.problem = problem
        super().__init__(f"{field}: {problem}")


class EmptyFleet(GraspError):
    """A scheduling decision was requested with no data centers registered."""


class AlreadyConnected(GraspError):
    """A switch sent a second connect event."""


class UnknownSwitch(GraspError):
    """A packet-in arrived from a switch that never connected."""


class NoPath(GraspError):
    """No discovered path between two switches."""
