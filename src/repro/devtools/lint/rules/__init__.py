"""Rule modules; importing this package registers every rule."""

from repro.devtools.lint.rules import (  # noqa: F401  (registration)
    artifacts,
    clocks,
    determinism,
    ordering,
    sharedmem,
)
