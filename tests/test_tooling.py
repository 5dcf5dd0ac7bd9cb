"""The benchmark's tracer names library functions by (module, attribute);
a rename in the package must fail here, not in a traced bench run."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from queuelab.dists import make_service_dist

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the bench tree as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_traced_names_resolve(tracer):
    names = [(mod, attr) for mod, attr, *_ in tracer.SPANS + tracer.COUNTED]
    names.append(("dists", "make_service_dist"))
    missing = [f"queuelab.{mod}.{attr}" for mod, attr in names
               if not hasattr(importlib.import_module(f"queuelab.{mod}"), attr)]
    assert not missing, f"bench/tracer.py traces names the package lacks: {missing}"


def test_traced_law_kernels_exist(tracer):
    law = make_service_dist("exponential")
    assert all(callable(getattr(law, k, None)) for k in tracer.LAW_KERNELS)
