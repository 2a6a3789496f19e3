"""The names the benchmark tracer (perfbench/tracer.py) wraps still exist.

The tracer replaces functions and methods by (module, qualified name)
and reads matrix sizes off GroupMap results, so renaming or deleting
any of them, or dropping a matrix attribute it reads, breaks
`perfbench/run.py --trace 1`.  The tracer is loaded here, not installed.
"""

import importlib
import importlib.util
from pathlib import Path

from wittlab.abgroup import GroupMap, PresentedAbGroup
from wittlab.tate import build_Q, tau_rot

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("wittlab_bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = []
    for mod_name, qual, _ in tracer.TARGETS:
        mod = importlib.import_module(f"wittlab.{mod_name}")
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(mod, cls_name, None)
            # the tracer patches the class's own attribute
            if cls is None or attr not in vars(cls):
                missing.append(f"{mod_name}.{qual}")
        elif not callable(getattr(mod, qual, None)):
            missing.append(f"{mod_name}.{qual}")
    assert missing == []


def test_group_map_matrix_exposes_traced_sizes():
    tracer = load_tracer()
    rot = tau_rot(build_Q(2, 1, 4), 2, 2)
    g = PresentedAbGroup.from_moduli([2, 4])
    for f in (rot, GroupMap.zero(g, PresentedAbGroup(0, []))):
        m = f.matrix
        assert (m.m, m.n) == (f.dst.num_gens, f.src.num_gens)
        assert len(m.rows) == m.m
        assert all(len(r) == m.n for r in m.rows)
        nnz = sum(len(m.sparse_col(j)) for j in range(m.n))
        assert tracer._nnz(m.rows) == nnz
