"""Exception types used across the package.

The three bases group failures by who can fix them: bad inputs (files,
settings, shapes), numerical preconditions of the model construction, and
an optimizer that does not converge or whose solution fails its optimality
certificate. The CLI maps them to exit codes 2, 3 and 4. A per-stock or
per-cluster rule refuses through ``require_each``, naming the first stock or
cluster that breaks it.
"""


class InputError(Exception):
    """Malformed or inconsistent user input."""


class ModelError(Exception):
    """A numerical precondition of the construction failed."""


class SolverError(Exception):
    """An optimizer did not converge, or its solution failed its KKT check."""


def in_file(path, build, *args):
    """``build(*args)``; an InputError or ModelError it raises keeps its type and fields and names ``path``."""
    try:
        return build(*args)
    except (InputError, ModelError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def require_each(ok, error):
    """Raise ``error(i)`` for the first index ``i`` where the boolean array
    ``ok`` is False. Write the rule so that NaN fails it."""
    if not ok.all():
        raise error(int(ok.argmin()))


class MissingInputFile(InputError):
    def __init__(self, path):
        super().__init__(f"input file not found: {path}")
        self.path = path


class DuplicateTicker(InputError):
    def __init__(self, ticker, path=None):
        super().__init__(f"{f'{path}: ' if path else ''}duplicate ticker {ticker!r}")
        self.ticker = ticker


class NonNumericCell(InputError):
    """A cell that should hold a number does not. Coordinates are 1-based
    over the data area (header row and ticker column excluded)."""

    def __init__(self, row, col, text):
        super().__init__(f"non-numeric cell at data row {row}, column {col}: {text!r}")
        self.row = row
        self.col = col
        self.text = text


class InsufficientObservations(InputError):
    def __init__(self, t):
        super().__init__(f"need at least 2 observations, got {t}")
        self.t = t


class InconsistentNesting(InputError):
    def __init__(self, level, cluster, parents):
        super().__init__(
            f"level-{level} cluster {cluster!r} maps to multiple "
            f"level-{level + 1} clusters: {sorted(parents)}"
        )
        self.level = level
        self.cluster = cluster
        self.parents = parents


class UnmappedStock(InputError):
    def __init__(self, ticker):
        super().__init__(f"stock {ticker!r} has no classification entry")
        self.ticker = ticker


class InvalidBeta(InputError):
    def __init__(self, detail):
        super().__init__(f"invalid beta vector: {detail}")


class DegenerateBenchmark(ModelError):
    """Benchmark return series has zero sample variance."""


class InvalidVariance(ModelError):
    """A diagonal variance entry is zero/negative, or a loading is unusable."""


class NegativeSpecificVariance(ModelError):
    """Specific variance would leave the admissible range.

    Raised when a level-1 cluster's loading dispersion puts the variance-fit
    bounds in conflict (theta_min > theta_max), or defensively if a computed
    specific variance is not strictly positive.
    """

    def __init__(self, level, cluster, detail):
        super().__init__(f"level {level}, cluster {cluster!r}: {detail}")
        self.level = level
        self.cluster = cluster


class DegenerateModel(ModelError):
    """Fitted model implies a non-positive benchmark variance."""


class SingularCovariance(ModelError):
    """Covariance matrix is singular or not positive-definite."""


class DegenerateRegression(InputError):
    """Regression denominator is zero (all-zero regressor or weights)."""


class DegenerateConstraints(InputError):
    """Requested constraint columns are linearly dependent."""


class LongOnlyViolation(ModelError):
    """A combined weight went negative; bounds were misconfigured."""

    def __init__(self, ticker, value):
        super().__init__(f"combined weight of {ticker!r} is negative: {value}")
        self.ticker = ticker
        self.value = value


class NoConvergence(SolverError):
    def __init__(self, iterations):
        super().__init__(f"optimizer did not converge within {iterations} iterations")
        self.iterations = iterations
