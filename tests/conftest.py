import ctypes
import glob
import os

# the runtime budgets in the acceptance suite assume single-threaded BLAS;
# at these matrix sizes extra threads only add overhead anyway
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np
import pytest

from geomatch import dataset


def openblas_kernel() -> str:
    """The OpenBLAS kernel that numpy's bundled library runs, e.g. `SkylakeX`;
    the variable OPENBLAS_CORETYPE forces another for one process."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "no bundled OpenBLAS"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def pytest_report_header(config):
    # the kernel-keyed pins check this kernel's digests
    return f"OpenBLAS kernel: {openblas_kernel()}"


def pytest_terminal_summary(terminalreporter, config):
    # -q, as tier-1 runs, hides the header: name the kernel at the end
    if config.option.verbose < 0:
        terminalreporter.write_line(pytest_report_header(config))


@pytest.fixture(scope="session")
def blas_kernel() -> str:
    """`openblas_kernel()`, the key of the kernel-bound pins."""
    return openblas_kernel()


@pytest.fixture(scope="session")
def toy_dataset(tmp_path_factory):
    """Small full toy dataset shared by read-only tests."""
    out = tmp_path_factory.mktemp("toyset")
    manifest = dataset.generate_toy_dataset(seed=11, out_dir=out, s_o=64, s_g=64)
    return manifest


@pytest.fixture(scope="session")
def pincer():
    return dataset.build_pincer(s_g=64, seed=3)


@pytest.fixture(scope="session")
def claw():
    return dataset.build_claw(s_g=64, seed=4)


@pytest.fixture()
def rng_np():
    return np.random.default_rng(12345)
