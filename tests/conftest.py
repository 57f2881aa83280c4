"""Shared test setup.

When a Hypothesis test fails, Hypothesis imports `libcst`, if it is
installed, inside a pytest hook to write the failure's patch. On some
versions that import warns DeprecationWarning, which `-W error` turns into
an INTERNALERROR that hides the falsifying example. Importing it once here,
with that warning ignored for this import only, keeps the failure report.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass
