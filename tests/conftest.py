import os
import sys
import warnings

# The suite runs numpy on one BLAS thread, as bench/run.py does: a second
# OpenBLAS thread slowed the training tests and took the second core.
# OpenBLAS reads these variables once, when numpy loads, so numpy must not
# be loaded yet; child processes the tests start inherit the setting.
assert "numpy" not in sys.modules, "numpy loaded before conftest.py set its BLAS threads"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hypothesis  # noqa: E402
import pytest  # noqa: E402

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


@pytest.fixture(scope="module")
def counting_pool():
    """A one-thread pool, counting the halves handed to it."""
    from concurrent.futures import ThreadPoolExecutor

    class CountingPool(ThreadPoolExecutor):
        submitted = 0

        def submit(self, *args, **kwargs):
            self.submitted += 1
            return super().submit(*args, **kwargs)

    pool = CountingPool(1)
    yield pool
    pool.shutdown()


@pytest.fixture
def worker_pool(counting_pool, monkeypatch):
    """layers' worker, started whatever the CPU count, counting the halves
    handed to it from zero."""
    from gaternet import layers

    counting_pool.submitted = 0
    monkeypatch.setattr(layers, "_worker", lambda: counting_pool)
    return counting_pool
