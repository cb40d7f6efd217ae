"""Exception types shared across the package.

An ``InputError`` is a fault in what the caller supplied: a file, a config,
a molecule. The CLI exits 2 on one. Any other ``RotencError`` is a fault of
the program itself, and the CLI exits 1.
"""


class RotencError(Exception):
    """Base class for all package errors."""


class InputError(RotencError):
    """Bad input from the caller rather than a fault of the program."""


class InvalidConfig(InputError):
    pass


class InvalidQuaternion(RotencError):
    pass


class NotCentered(RotencError):
    pass


class TooFewPoints(InputError):
    pass


class ShapeError(RotencError):
    pass


class NotScalar(RotencError):
    pass


class UnknownElement(InputError):
    pass


class DegenerateCloud(InputError):
    pass


class ParseError(InputError):
    """Malformed dataset record; carries the 1-based line number."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DuplicateId(InputError):
    pass


class ConstantTarget(InputError):
    pass


class InvalidSplit(InputError):
    pass


class StaleGradient(RotencError):
    pass


class Diverged(RotencError):
    """Training loss became non-finite; carries (epoch, batch)."""

    def __init__(self, epoch, batch):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


class TaskMismatch(InputError):
    pass


class NoData(InputError):
    pass
