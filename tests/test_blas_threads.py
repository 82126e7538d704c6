"""The import-time cap on OpenBLAS threads, read back in fresh processes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repgames import BLAS_THREAD_VARIABLES

ROOT = Path(__file__).resolve().parent.parent

# the pool size after `import repgames`, through the getter that pairs with
# the setter the package found; "none" when numpy's BLAS exports neither
READ_BACK = """
import ctypes, sys
sys.path.insert(0, "src")
import repgames
with open("/proc/self/maps") as maps:
    libs = sorted({line.split()[-1] for line in maps if "blas" in line.lower()
                   and line.split()[-1].startswith("/")})
for lib in libs:
    handle = ctypes.CDLL(lib)
    for name in repgames._SET_THREADS:
        getter = getattr(handle, name.replace("_set_", "_get_"), None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            print(getter())
            sys.exit(0)
print("none")
"""


def pool_size(**env) -> int:
    clean = {k: v for k, v in os.environ.items()
             if k not in BLAS_THREAD_VARIABLES}
    out = subprocess.run([sys.executable, "-B", "-c", READ_BACK], cwd=ROOT,
                         env={**clean, **env}, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    if out.stdout.strip() == "none":
        pytest.skip("numpy's BLAS is not an OpenBLAS with a thread setter")
    return int(out.stdout)


def test_a_plain_import_caps_the_pool_at_one_thread():
    assert pool_size() == 1


def test_an_empty_variable_counts_as_unset():
    assert pool_size(OMP_NUM_THREADS="") == 1


@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS",
                                      "OMP_NUM_THREADS"])
def test_a_thread_count_the_user_set_is_kept(variable):
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS runs at most one thread per core")
    assert pool_size(**{variable: "2"}) == 2
