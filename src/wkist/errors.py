"""Error taxonomy for the toolkit.

Two families matter operationally:

* ``RegimeError`` -- the input left the small-data regime the method is
  built for (a bound state showed up, the slope condition broke).  These
  are expected science outcomes, not bugs, and the CLI reports them with
  a dedicated exit status.
* ``NumericalError`` -- a solver or resolution budget was exhausted.

Every error carries a stable kebab-case ``kind`` string used in
machine-readable error records, and the ``exit_code`` the CLI returns
for it: 2 for bad input, 3 for a regime violation, 4 for a numerical
failure, 1 for any other toolkit error.
"""


class WkiError(Exception):
    """Base class for all toolkit errors."""

    kind = "error"
    exit_code = 1


class InvalidArgumentError(WkiError, ValueError):
    kind = "invalid-argument"
    exit_code = 2


def check_number(name: str, value: float, low: float | None = None,
                 strict: bool = False) -> float:
    """``value``, refused unless finite and >= ``low`` (> ``low`` when ``strict``)."""
    in_range = low is None or (value > low if strict else value >= low)
    if not (abs(value) < float("inf") and in_range):
        bound = "" if low is None else f" {'>' if strict else '>='} {low:g}"
        raise InvalidArgumentError(f"{name} must be a finite number{bound}, got {value}")
    return value


class RegimeError(WkiError):
    """The potential/data violates the small-data assumptions."""

    kind = "regime-error"
    exit_code = 3


class PossibleBoundStateError(RegimeError):
    """min |a| dipped below the acceptance floor: discrete spectrum likely."""

    kind = "possible-bound-state"

    def __init__(self, message, min_abs_a=None):
        super().__init__(message)
        self.min_abs_a = min_abs_a


class SlopeConditionError(RegimeError):
    """|slope| reached 1: the reconstruction formula cannot be inverted."""

    kind = "slope-condition-violated"

    def __init__(self, message, max_slope=None):
        super().__init__(message)
        self.max_slope = max_slope


class NumericalError(WkiError):
    kind = "numerical-error"
    exit_code = 4


class ResolutionExceededError(NumericalError):
    kind = "resolution-exceeded"


class RhpUnsolvedError(NumericalError):
    kind = "rhp-unsolved"


class HodographInconsistentError(NumericalError):
    kind = "hodograph-inconsistent"


class RangeError(NumericalError):
    kind = "range-error"


class EvolutionDivergedError(NumericalError):
    """Blow-up guard tripped; carries when and where."""

    kind = "evolution-diverged"

    def __init__(self, message, time=None, location=None, value=None):
        super().__init__(message)
        self.time = time
        self.location = location
        self.value = value


class _AtSingularity:
    """Typed outcome for a query sitting exactly on a bursting peak.

    Returned (never raised) by closed-form evaluators when the requested
    point has an unbounded answer.  There is a single instance,
    ``AT_SINGULARITY``; compare with ``is``.
    """

    kind = "at-singularity"
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "AT_SINGULARITY"

    def __bool__(self):
        return False


AT_SINGULARITY = _AtSingularity()
