"""Work lists, warm-up calls and oracles for the benchmark workloads.

A workload is a fixed list of operations.  Each operation is an `Op`:
a signature (what kind of call it is), a zero-argument callable that
performs the call, and the inputs its oracle needs.  The list is built
from the seed; only operand values depend on it, never the number of
operations of each signature, so timings are comparable across seeds.

The oracles run outside the timed region.  Every oracle returns True
for a correct result and False for a wrong one.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Op:
    __slots__ = ("sig", "call", "check", "data")

    def __init__(self, sig, call, check, data):
        self.sig = sig
        self.call = call
        self.check = check  # check(result, data, sampled) -> bool
        self.data = data


# ---------------------------------------------------------------------------
# witt_arith

# (p, n, ring name) cells and how many operations of each kind a pass runs.
# Latency classes on a shared 2-core Xeon VM: neg/frob/big +/decompose under
# 1 ms; (2,5) and (3,4) + - * over Z, F_p, Z/p^k and big * about 1-2 ms;
# GF(q) + - *, (5,4) * and ncpoly about 6-15 ms; (5,4) + - about 100 ms.
# The counts put the median inside the 1-2 ms class and the 90th
# percentile inside the 6-15 ms class, away from either edge.
WITT_CELLS = [
    (2, 5, "Z"), (2, 5, "F2"), (2, 5, "GF4"),
    (3, 4, "Z"), (3, 4, "Z27"), (3, 4, "GF9"),
    (5, 4, "Z"), (5, 4, "Z125"), (5, 4, "F5"),
]
WITT_COUNTS = {
    # ring kind -> {op: count}
    "cheap": {"add": 16, "sub": 16, "mul": 16, "neg": 6, "frob": 6},
    "gf": {"add": 10, "sub": 10, "mul": 10, "neg": 6, "frob": 6},
    "p5": {"add": 3, "sub": 3, "mul": 12, "neg": 6, "frob": 6},
}
BIG_N = 12
BIG_COUNTS = {"big_add": 8, "big_mul": 16, "decompose": 8}
NC_CASES = {(2, 3): 10, (3, 2): 10}
# identity checks over Z/p^k and GF(q) run on the first few results of
# each signature; the ghost and p-adic oracles check every result
SAMPLE = 1


def _ring(name):
    from wittlab.rings import GF, ZZ, Zmod

    if name == "Z":
        return ZZ
    if name.startswith("GF"):
        return GF(int(name[2:]))
    return Zmod(int(name[1:]))


def _cell_kind(p, name):
    if name.startswith("GF"):
        return "gf"
    return "p5" if p == 5 else "cheap"


def _random_elt(rng, ring):
    from wittlab.rings import IntegerRing, Zmod

    if isinstance(ring, IntegerRing):
        return rng.randint(-9, 9)
    if isinstance(ring, Zmod):
        return rng.randrange(ring.m)
    return tuple(rng.randrange(ring.p) for _ in range(ring.deg))


def _witt_oracle(op_name, res, data, sampled):
    from wittlab.rings import ZZ, IntegerRing, Zmod
    from wittlab.witt import WittVector, witt_to_padic

    u, v, c = data
    p, ring, n = u.p, u.ring, len(u)
    if not isinstance(res, WittVector) or res.ring != ring or res.p != p:
        return False
    if isinstance(ring, IntegerRing):
        gu, gv, gr = u.ghost(), v.ghost(), res.ghost()
        want = {
            "add": [a + b for a, b in zip(gu, gv)],
            "sub": [a - b for a, b in zip(gu, gv)],
            "mul": [a * b for a, b in zip(gu, gv)],
            "neg": [-a for a in gu],
            "frob": gu[1:],
        }[op_name]
        return gr == want
    if isinstance(ring, Zmod) and ring.m == p:
        mod = p ** n
        a, b = witt_to_padic(u), witt_to_padic(v)
        want = {
            "add": (a + b) % mod,
            "sub": (a - b) % mod,
            "mul": a * b % mod,
            "neg": -a % mod,
            "frob": a % p ** (n - 1),
        }[op_name]
        return len(res) == (n - 1 if op_name == "frob" else n) and (
            witt_to_padic(res) == want
        )
    # Z/p^k and GF(q): F by its definition, ring identities on a sample
    if op_name == "frob":
        if isinstance(ring, Zmod):
            # W(Z) -> W(Z/p^k) is a ring map; the lift is checked by ghosts
            z = WittVector(p, ZZ, u.comps)
            lift = z.frobenius()
            return lift.ghost() == z.ghost()[1:] and res.comps == tuple(
                x % ring.m for x in lift.comps
            )
        # characteristic p: F raises components to the p-th power
        want = []
        for a in u.comps[:-1]:
            x = ring.one
            for _ in range(p):
                x = ring.mul(x, a)
            want.append(x)
        return res.comps == tuple(want)
    if not sampled:
        return len(res) == n
    if op_name == "neg":
        return u + res == WittVector.zero(p, ring, n)
    if op_name == "add":
        return res - v == u
    if op_name == "sub":
        return res + v == u
    return u * (v + c) == res + u * c


def _big_check(op_name):
    def check(res, data, sampled):
        from wittlab.bigwitt import BigWitt

        x, y = data
        if op_name == "decompose":
            return _decompose_ok(x, res)
        if not isinstance(res, BigWitt):
            return False
        gx, gy, gr = x.ghost(), y.ghost(), res.ghost()
        if op_name == "big_add":
            return gr == [a + b for a, b in zip(gx, gy)]
        return gr == [a * b for a, b in zip(gx, gy)]

    return check


def _decompose_ok(v, pieces):
    # the classical ghost of piece m equals the big ghost at m, m*p, ...
    g = v.ghost()
    if sum(len(w) for w in pieces.values()) != v.trunc:
        return False
    for m, w in pieces.items():
        for j, x in enumerate(w.ghost()):
            if x != g[m * w.p ** j - 1]:
                return False
    return True


def _nc_check(p, upto):
    def check(res, data, sampled):
        from wittlab.ncpoly import splitting_holds

        return len(res) == upto and all(
            splitting_holds(p, res, k) for k in range(1, upto + 1)
        )

    return check


def witt_arith_ops(seed):
    from wittlab.bigwitt import BigWitt, p_typical_decompose
    from wittlab.ncpoly import solve_nc_c
    from wittlab.rings import ZZ, Zmod
    from wittlab.witt import WittVector

    rng = random.Random(seed)
    ops = []
    calls = {
        "add": lambda u, v: u + v,
        "sub": lambda u, v: u - v,
        "mul": lambda u, v: u * v,
        "neg": lambda u, v: -u,
        "frob": lambda u, v: u.frobenius(),
    }
    for p, n, name in WITT_CELLS:
        ring = _ring(name)
        for op_name, count in WITT_COUNTS[_cell_kind(p, name)].items():
            fn = calls[op_name]
            for _ in range(count):
                u, v, c = (
                    WittVector(p, ring, [_random_elt(rng, ring) for _ in range(n)])
                    for _ in range(3)
                )
                ops.append(Op(
                    f"witt:{p},{n},{name}:{op_name}",
                    (lambda fn=fn, u=u, v=v: fn(u, v)),
                    functools.partial(_witt_oracle, op_name),
                    (u, v, c),
                ))
    z8 = Zmod(8)
    for op_name, count in BIG_COUNTS.items():
        ring = z8 if op_name == "decompose" else ZZ
        for _ in range(count):
            if op_name == "decompose":
                x = BigWitt(ring, [rng.randrange(8) for _ in range(BIG_N)])
                y = None
                call = (lambda x=x: p_typical_decompose(2, x))
            else:
                x, y = (
                    BigWitt(ring, [rng.randint(-3, 3) for _ in range(BIG_N)])
                    for _ in range(2)
                )
                call = (lambda x=x, y=y: x + y) if op_name == "big_add" else (
                    lambda x=x, y=y: x * y
                )
            ops.append(Op(f"big:{BIG_N}:{op_name}", call, _big_check(op_name),
                          (x, y)))
    for (p, upto), count in NC_CASES.items():
        for _ in range(count):
            ops.append(Op(
                f"ncpoly:{p},{upto}",
                (lambda p=p, upto=upto: solve_nc_c(p, upto)),
                _nc_check(p, upto),
                None,
            ))
    rng.shuffle(ops)
    return ops


def witt_arith_corrupt(ops, results):
    """A deliberately wrong result for the harness self-check."""
    from wittlab.witt import WittVector

    for op, res in zip(ops, results):
        if op.sig.endswith(",Z:add"):
            bad = WittVector(res.p, res.ring, (res.comps[0] + 1,) + res.comps[1:])
            return op, bad
    raise RuntimeError("no witt addition over Z in the work list")


# ---------------------------------------------------------------------------
# CLI sweeps

QGROUP_CASES = [(2, 2, 4), (2, 2, 5), (3, 2, 2), (2, 3, 2), (3, 1, 4), (5, 1, 3)]
WHH_CASES = [
    ("f2", 3), ("f3", 2), ("f4", 2), ("dual_numbers_f2", 2),
    ("upper_triangular_2x2_f2", 2),
]
HH_CASE = ("upper_triangular_2x2_f2", 3, 2)


@functools.cache
def expected():
    """The CLI payloads recorded once, at the commit that added them."""
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def run_cli(argv):
    """wittlab.cli.main in-process; returns (exit code, stdout text)."""
    from wittlab.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _cli_check(key):
    def check(res, data, sampled):
        code, text = res
        if code != 0:
            return False
        payload = json.loads(text)
        if payload["order"] != math.prod(payload["invariant_factors"]):
            return False
        return payload == expected()[key]

    return check


def _cli_op(key, argv):
    return Op(f"cli:{key}", (lambda: run_cli(argv)), _cli_check(key), None)


def qgroup_key(p, n, d):
    return f"qgroup p={p} n={n} d={d}"


def qgroup_argv(p, n, d):
    return ["qgroup", "--format", "json", "-p", str(p), "-n", str(n), "-d", str(d)]


def whh_key(name, n):
    return f"whh {name} n={n}"


def whh_argv(name, n):
    path = os.path.join(ROOT, "algebras", f"{name}.json")
    return ["whh", "--format", "json", path, "-n", str(n)]


# The sweeps run in a fixed order whatever the seed: an invocation's
# latency depends on what ran before it in the same process.
def qgroup_sweep_ops(seed):
    return [_cli_op(qgroup_key(*c), qgroup_argv(*c)) for c in QGROUP_CASES]


def _hh_call(name, depth, through):
    from wittlab.hochschild import build_A_natural, builtin_algebra, hochschild_homology

    return hochschild_homology(build_A_natural(builtin_algebra(name), depth), through)


def hh_key(name, depth, through):
    return f"hochschild_homology {name} D={depth} through={through}"


def _hh_check(key):
    def check(res, data, sampled):
        return list(res) == expected()[key]

    return check


def whh_sweep_ops(seed):
    ops = [_cli_op(whh_key(*c), whh_argv(*c)) for c in WHH_CASES]
    key = hh_key(*HH_CASE)
    ops.append(Op("api:" + key, (lambda: _hh_call(*HH_CASE)), _hh_check(key), None))
    return ops


def cli_corrupt(ops, results):
    for op, res in zip(ops, results):
        if op.sig.startswith("cli:"):
            code, text = res
            payload = json.loads(text)
            payload["order"] += 1
            return op, (code, json.dumps(payload))
    raise RuntimeError("no CLI call in the work list")


# ---------------------------------------------------------------------------
# warm-up: the first call of each distinct operation signature


def witt_arith_warmup(ops):
    seen = set()
    for op in ops:
        if op.sig not in seen:
            seen.add(op.sig)
            op.call()


def qgroup_warmup(ops):
    run_cli(qgroup_argv(2, 2, 2))


def whh_warmup(ops):
    run_cli(whh_argv("f2", 2))
    _hh_call("f2", 2, 1)


# name -> (work list from a seed, warm-up, deliberately wrong result)
WORKLOADS = {
    "witt_arith": (witt_arith_ops, witt_arith_warmup, witt_arith_corrupt),
    "qgroup_sweep": (qgroup_sweep_ops, qgroup_warmup, cli_corrupt),
    "whh_sweep": (whh_sweep_ops, whh_warmup, cli_corrupt),
}
