import warnings

import hypothesis

# Hypothesis prints a patch for a failing example through
# hypothesis.extra._patching, whose libcst import raises a
# DeprecationWarning from mypy_extensions. Under filterwarnings = error
# that warning would escape the plugin's report hook as an INTERNALERROR
# and end the session, so the module is imported once here, with only
# that import's warnings silenced.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst missing: the plugin prints no patch
        pass

hypothesis.settings.register_profile(
    "repo",
    derandomize=True,
    deadline=None,
    max_examples=50,
)
hypothesis.settings.load_profile("repo")
