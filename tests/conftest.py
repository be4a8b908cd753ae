"""Session setup: load the command-line module without its BLAS pin leaking.

Importing `banach_ar1.cli` sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to "1" in `os.environ` (the program's one-BLAS-thread
policy).  It is imported once here, after numpy, so this process keeps the
BLAS threads it was started with, and the three variables are then put back
as they were, so child processes that tests start see the original
environment.
"""

import os

import numpy  # noqa: F401  (loads BLAS under the environment pytest was started with)
import pytest

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ORIGINAL_BLAS_ENV = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}

import banach_ar1.cli  # noqa: E402

assert banach_ar1.cli.BLAS_THREAD_VARS == BLAS_THREAD_VARS
for _var, _value in ORIGINAL_BLAS_ENV.items():
    if _value is None:
        os.environ.pop(_var, None)
    else:
        os.environ[_var] = _value


@pytest.fixture
def original_blas_env():
    """The BLAS thread variables as pytest was started with them; None means unset."""
    return dict(ORIGINAL_BLAS_ENV)
