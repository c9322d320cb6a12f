"""Exception types shared across the package."""

__all__ = ["InvariantError"]


class InvariantError(AssertionError):
    """A mathematical invariant the code relies on failed.

    Raised when a theorem-backed fact (exact divisibility of a binomial,
    uniqueness of a rotation, recurrence of an orbit) does not hold at
    runtime.  This always indicates a bug or corrupted state, never bad
    user input; bad input raises ValueError instead.
    """
