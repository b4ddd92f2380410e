"""Exception hierarchy shared across the package, and where a text input
stops being UTF-8, on a line counted as the csv reader counts it.

Three branches matter to the batch front-end: ConfigError (exit 2),
DataError (exit 3) and NumericalError (exit 4). Library code raises the
most specific class available; the CLI maps the branch to an exit code.
no_overflow() owns the rule that an overflow is a NumericalError.
"""

import contextlib


class ClimfactError(Exception):
    """Base class for all package errors."""


class ConfigError(ClimfactError):
    """Invalid or incomplete run configuration."""


class DataError(ClimfactError):
    """Input data violates a precondition (shape, calendar, coverage)."""


class NumericalError(ClimfactError):
    """Estimation failed numerically (rank, conditioning, overflow)."""


@contextlib.contextmanager
def no_overflow():
    """Raise arithmetic past the float range as NumericalError, as
    ``@no_overflow()`` or ``with no_overflow():``. Under an over="raise"
    already in force the body runs as it is: the outermost guard converts."""
    import numpy as np  # here, so config loads this module without numpy
    if np.geterr()["over"] == "raise":
        yield
        return
    with np.errstate(over="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise NumericalError(str(exc)) from None


# -- data errors --------------------------------------------------------


class ParseError(DataError):
    """Malformed input file; carries the offending line/offset when known."""

    def __init__(self, message, path=None, line=None, offset=None):
        loc = []
        if path is not None:
            loc.append(str(path))
        if line is not None:
            loc.append(f"line {line}")
        if offset is not None:
            loc.append(f"offset {offset}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.path = path
        self.line = line
        self.offset = offset


class IrregularCalendar(DataError):
    """Monthly time axis has gaps or duplicates."""


class AllMasked(DataError):
    """No grid cell survives the missing-data mask."""


class EmptyDomain(DataError):
    """Domain mask admits no valid cell."""


class NonConformable(DataError):
    """Operands do not share the same grid domain."""


class NonConformableMask(DataError):
    """Mask raster dimensions do not match the domain geometry."""


class EmptyRegion(DataError):
    """Region mask has no overlap with the valid domain."""


class EmptyIntersection(DataError):
    """Time axes of the inputs have no common window."""


class NoSectorsRemain(DataError):
    """Every panel column was dropped during preprocessing."""


class InsufficientHistory(DataError):
    """Reference window does not cover the required calendar months."""


class InsufficientSample(DataError):
    """Estimation window too short for the requested design."""


class CenterOutsideDomain(DataError):
    """Synthetic shock center lies outside the grid bounds."""


class EmptyFootprint(DataError):
    """No valid cell falls inside the synthetic shock radius."""


# -- numerical errors ---------------------------------------------------


class RankDeficientDesign(NumericalError):
    """Regression design is collinear; names the offending columns."""

    def __init__(self, message, columns=()):
        if columns:
            message = f"{message}: {', '.join(columns)}"
        super().__init__(message)
        self.columns = tuple(columns)


class ZeroCrossCovariance(NumericalError):
    """All cross-covariance singular values fall below the cutoff."""


class SingularFactorCovariance(NumericalError):
    """Factor covariance is numerically singular; lower K and retry."""


def first_non_utf8(path):
    """(value, 1-based line) of the first byte of path that is not UTF-8;
    called once a text read of path has failed to decode. A line ends at
    CR LF, CR or LF, as the csv reader counts lines."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        return raw[exc.start], head.count(b"\n") + 1
