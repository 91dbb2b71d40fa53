"""Session-wide test setup."""

import warnings

# hypothesis's report of a failing example imports hypothesis.extra._patching,
# whose imports (libcst, then mypy_extensions.TypedDict) raise a
# DeprecationWarning.  Under pyproject's filterwarnings = ["error"] that
# warning, raised inside a pytest hook, ends the session with INTERNALERROR
# and leaves every later test unrun.  Imported once here, with its own
# warnings ignored, the module is already loaded when a report needs it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    import hypothesis.extra._patching  # noqa: F401
