"""No module of the package starts threads or processes, and no exact route
wakes OpenBLAS's thread pool.

Monte Carlo chunks run in order in the calling thread: chunk work holds the
GIL, so a pool made every estimator call slower.  Importing ``threading``,
``concurrent.futures`` or ``multiprocessing`` (or anything under them) in
``src/cluekit`` fails this test, so a pool cannot come back unmeasured.

The exact routes run in the calling thread too: their weighted sums go
through ``core._contract`` and the product-basis transform through
``spectral._transform``, both cut into BLAS calls below the size at which
OpenBLAS hands a product to its pool.  A pool worker spins about 0.12 s of
CPU time after such a call before it sleeps, so a child process that ran
the largest exact jobs and then sleeps shows the spin as CPU time spent
while it slept.
"""
import ast
import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cluekit"
FORBIDDEN = ("threading", "concurrent", "multiprocessing")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _imported_modules(tree: ast.AST):
    """(module name, line) of every import under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, node.lineno


def test_no_module_imports_a_pool():
    found = {
        f"{path.name}:{line}": name
        for path in sorted(SRC.rglob("*.py"))
        for name, line in _imported_modules(ast.parse(path.read_text()))
        if name.split(".")[0] in FORBIDDEN
    }
    assert found == {}


SPIN_PROBE = """
import contextlib, io, time
from cluekit import cli
commands = [
    ["analyze", "--fn", "maj:17", "--subset", "0,3,5,8,11",
     "--metrics", "l2,spectral,sig,inf,wit,tv,i,kl"],
    ["spectrum", "--fn", "maj:15"],
    ["clue", "--fn", "maj:17", "--all-subsets"],
    ["perco", "--torus", "3", "--avg-clue", "--subset", "0x5008"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
start = time.process_time()
time.sleep(0.3)
print(time.process_time() - start)
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS starts no pool on one core")
def test_no_exact_route_spins_a_blas_worker(run_python):
    """With no BLAS thread variable set, OpenBLAS sizes its pool to the
    cores.  A worker that ran one of the jobs' products would spin through
    most of the sleep: about 115-125 ms of CPU, against well under 1 ms
    when every product ran in the calling thread."""
    out = run_python(SPIN_PROBE, unset=BLAS_THREAD_VARS)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) < 0.030
