"""Exception types shared across the package, and the check of a choice."""


class QPoissonError(Exception):
    """Base class for all package-specific errors."""


class EncodingError(QPoissonError):
    """A value cannot be represented in the requested fixed-point format."""


class CollisionError(EncodingError):
    """Two eigenvalues encode to the same bitstring; increase f or m."""


class ResourceError(QPoissonError):
    """A requested computation exceeds the configured memory or width budget."""


class PostselectionError(QPoissonError):
    """The ancilla success probability is too small to condition on."""


def check_choice(name: str, value, allowed: tuple) -> None:
    """Raise ValueError unless value is one of the allowed choices."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {', '.join(allowed)}; got {value!r}")
