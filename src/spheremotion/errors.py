"""The one base of the package's input errors."""


class InputError(ValueError):
    """Bad input: `spheremotion` reports it and exits 2.  Every module's
    error class derives from it; any other exception is a bug."""
