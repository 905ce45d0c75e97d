"""Exception types shared across the package."""


class QuantrlError(Exception):
    """Base class for all quantrl errors."""


class MalformedRow(QuantrlError):
    """A CSV row could not be parsed."""

    def __init__(self, line_no: int, detail: str):
        super().__init__(f"line {line_no}: {detail}")
        self.line_no = line_no
        self.detail = detail


class InvariantViolation(QuantrlError):
    """A bar or series violates a structural invariant."""

    def __init__(self, line_no, rule: str):
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{where}{rule}")
        self.line_no = line_no
        self.rule = rule


class EmptySeries(QuantrlError):
    """Fewer than two usable bars."""


class PeriodTooLong(QuantrlError):
    """Indicator period leaves no defined values for the series length."""


class EmptyInput(QuantrlError):
    """Normalization fit received an empty sequence."""


class ZeroVector(QuantrlError):
    """L2 normalization of an all-zero vector."""


class NonPositiveValue(QuantrlError):
    """Window log transform hit a value <= 0."""


class SeriesTooShort(QuantrlError):
    """Series cannot host warm-up + observation window + one step."""


class SteppedAfterDone(QuantrlError):
    """step() called on a finished episode."""


class NonPositivePrice(QuantrlError):
    """Reward computation received a price <= 0."""


class NonPositiveEquity(QuantrlError):
    """Reward computation received an equity <= 0."""


class ShapeMismatch(QuantrlError):
    """Array shape incompatible with the network or file header."""


class TrainingDiverged(QuantrlError):
    """A training update produced a non-finite loss."""

    def __init__(self, step: int, loss: float):
        super().__init__(f"step {step}: loss {loss} is not finite")
        self.step = step
        self.loss = loss


class BufferTooSmall(QuantrlError):
    """Replay buffer holds fewer transitions than the requested batch."""


class CorruptFile(QuantrlError):
    """A policy file failed magic/version/length validation, or a report file is not a report."""


class TooFewSamples(QuantrlError):
    """Metric needs more return samples than provided."""


class SchemaError(QuantrlError, ValueError):
    """Experiment config failed validation at ``key``."""

    def __init__(self, key: str, detail: str):
        super().__init__(f"{key}: {detail}")
        self.key = key
        self.detail = detail
