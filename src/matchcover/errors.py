class InternalInvariantError(RuntimeError):
    """A solver invariant was violated; the produced state cannot be trusted."""


class NoCoverError(ValueError):
    """The input admits no matching cover: it is empty or has an isolated vertex."""

    @classmethod
    def isolated(cls, v: int) -> "NoCoverError":
        return cls(f"vertex {v} is isolated: no matching cover exists")
