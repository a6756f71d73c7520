"""Shared exception types. Everything here signals bad input data, which the
CLI reports with exit code 2."""


class DataError(ValueError):
    """Malformed or inconsistent input (files, schemas, parses)."""


class OovError(DataError):
    """Every token of the unit being embedded is out of vocabulary."""
