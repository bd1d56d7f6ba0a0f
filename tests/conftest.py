"""Pytest set-up for the tier-1 suite.

Pin OpenBLAS to one thread before numpy loads, as the benchmark does.  The
problems here are small and dense, and on a 2-vCPU machine the default
thread count makes the dim-200 tests about five times slower through
thread contention.  An explicit ``OPENBLAS_NUM_THREADS`` still wins.

Turn ``scipy.linalg.LinAlgWarning`` into an error.  LU factors come from
``dgetrf``, which never warns, so such a warning means a scipy wrapper
crept back in without its pivot check.  The filter is added here rather
than by ``-W`` or in ``pyproject.toml``: pytest resolves those before this
file loads, and resolving the class imports numpy.

Turn ``RuntimeWarning`` into an error too, so silent overflow or invalid
arithmetic fails the test that meets it, such as a finiteness check that
sums or squares its input.  A test that overflows on purpose says so
with ``np.errstate``.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error::scipy.linalg.LinAlgWarning")
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
