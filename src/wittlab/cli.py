"""Command-line front end.

Subcommands: gen-polys, padic, big, qgroup, ncpoly, whh, verify.
Text output is deterministic; --format json mirrors it field for field
under the schema tag "wittlab/1".  Exit codes: 0 success, 1 failed
checks, 2 invalid input, 3 resource bound exceeded.
"""

import argparse
import json
import os
import re
import sys

from .errors import (
    InvalidAlgebra,
    NotDivisible,
    NotPLocal,
    ParameterMismatch,
    ResourceLimit,
)

SCHEMA = "wittlab/1"


def _format_factors(factors):
    """Abelian group text like Z/2 x (Z/4)^2; 0 for the trivial group."""
    if not factors:
        return "0"
    parts = []
    run_val, run_len = factors[0], 1
    for f in list(factors[1:]) + [None]:
        if f == run_val:
            run_len += 1
            continue
        parts.append(f"Z/{run_val}" if run_len == 1 else f"(Z/{run_val})^{run_len}")
        run_val, run_len = f, 1
    return " x ".join(parts)


# ---------------------------------------------------------------------------
# the little Witt expression language for cmd_padic

_TOKEN = re.compile(r"\s*(\d+|[TVFR]|[+*(),])")


def _tokenize(expr):
    out, pos = [], 0
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if not m:
            raise ParameterMismatch(f"cannot tokenize {expr[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _ExprParser:
    """expr := term (+ term)*; term := atom (* atom)*;
    atom := T(int) | V(expr) | F(expr) | R(expr) | (digits) | (expr)."""

    def __init__(self, tokens, p, n):
        from .rings import Zmod

        self.tokens = tokens
        self.pos = 0
        self.p = p
        self.n = n
        self.ring = Zmod(p)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def eat(self, want=None):
        tok = self.peek()
        if tok is None:
            raise ParameterMismatch("unexpected end of expression")
        if want is not None and tok != want:
            raise ParameterMismatch(f"expected {want!r}, got {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise ParameterMismatch(f"trailing input at {self.peek()!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() == "+":
            self.eat("+")
            value = value + self.term()
        return value

    def term(self):
        value = self.atom()
        while self.peek() == "*":
            self.eat("*")
            value = value * self.atom()
        return value

    def atom(self):
        from .witt import WittVector

        tok = self.peek()
        if tok == "T":
            self.eat()
            self.eat("(")
            k = int(self.eat())
            self.eat(")")
            return WittVector.teichmuller(
                self.p, self.ring, self.ring.from_int(k), self.n
            )
        if tok in ("V", "F", "R"):
            self.eat()
            self.eat("(")
            inner = self.expr()
            self.eat(")")
            if tok == "V":
                # fixed-length shift: push down one slot, drop the top
                return inner.verschiebung().restriction()
            if tok == "F":
                return inner.frobenius()
            return inner.restriction()
        if tok == "(":
            self.eat("(")
            if self.peek() is not None and self.peek().isdigit():
                digits = [int(self.eat())]
                while self.peek() == ",":
                    self.eat(",")
                    digits.append(int(self.eat()))
                self.eat(")")
                if len(digits) != self.n:
                    raise ParameterMismatch(
                        f"digit tuple needs {self.n} entries, got {len(digits)}"
                    )
                return WittVector(
                    self.p, self.ring, tuple(d % self.p for d in digits)
                )
            inner = self.expr()
            self.eat(")")
            return inner
        raise ParameterMismatch(f"unexpected token {tok!r}")


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, text_lines)


def cmd_gen_polys(args):
    from .witt import poly_text_lines

    lines = poly_text_lines(args.p, args.n, args.kind)
    payload = {"p": args.p, "n": args.n, "kind": args.kind, "lines": lines}
    return payload, lines


def cmd_padic(args):
    from .witt import witt_to_padic

    parser = _ExprParser(_tokenize(args.expr), args.p, args.n)
    value = parser.parse()
    digits = [int(c) for c in value.comps]
    modulus = args.p ** len(digits)
    as_int = witt_to_padic(value)
    text = f"({','.join(str(d) for d in digits)}) = {as_int} mod {modulus}"
    payload = {
        "p": args.p,
        "n": args.n,
        "expr": args.expr,
        "components": digits,
        "value": as_int,
        "modulus": modulus,
    }
    return payload, [text]


def _parse_comps(text, expected=None):
    try:
        comps = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParameterMismatch(f"bad component list {text!r}") from None
    if expected is not None and len(comps) != expected:
        raise ParameterMismatch(f"need {expected} components, got {len(comps)}")
    return comps


def cmd_big(args):
    from .bigwitt import BigWitt
    from .rings import ZZ

    n = args.N
    if n < 1:
        raise ParameterMismatch(f"N must be >= 1, got {n}")
    x = BigWitt(ZZ, _parse_comps(args.vector, n))
    lines = [
        f"x = ({','.join(map(str, x.comps))})",
        f"ghost(x) = ({','.join(map(str, x.ghost()))})",
    ]
    payload = {"N": n, "x": list(x.comps), "ghost_x": x.ghost()}
    if args.other is not None:
        y = BigWitt(ZZ, _parse_comps(args.other, n))
        s, pr = x + y, x * y
        lines += [
            f"y = ({','.join(map(str, y.comps))})",
            f"ghost(y) = ({','.join(map(str, y.ghost()))})",
            f"x+y = ({','.join(map(str, s.comps))})",
            f"x*y = ({','.join(map(str, pr.comps))})",
        ]
        payload.update(
            {
                "y": list(y.comps),
                "ghost_y": y.ghost(),
                "sum": list(s.comps),
                "product": list(pr.comps),
            }
        )
    return payload, lines


def cmd_qgroup(args):
    from .tate import build_Q, frob_F, restrict_R, ver_V

    space = build_Q(args.p, args.n, args.d, args.limit)
    factors = list(space.group.invariant_factors)
    lines = [
        f"Q_{args.n} at dimension {args.d} over F_{args.p}: "
        f"{_format_factors(tuple(factors))}",
        f"order {space.group.order()}",
    ]
    payload = {
        "p": args.p,
        "n": args.n,
        "d": args.d,
        "invariant_factors": factors,
        "order": space.group.order(),
    }
    if args.n >= 2:
        lo = build_Q(args.p, args.n - 1, args.d, args.limit)
        pw = build_Q(args.p, args.n - 1, args.d ** args.p, args.limit)
        # |im f| = |dst| / |coker f|
        ranks = {
            f"{k}_image_order": f.dst.order() // f.cokernel().order()
            for k, f in (
                ("R", restrict_R(space, lo)),
                ("V", ver_V(pw, space)),
                ("F", frob_F(space, pw)),
            )
        }
        lines += [f"{k.replace('_', ' ')}: {v}" for k, v in ranks.items()]
        payload.update(ranks)
    return payload, lines


def cmd_ncpoly(args):
    from .ncpoly import comm_c_polys, solve_nc_c

    cs = solve_nc_c(args.p, args.n, args.limit)
    comm = comm_c_polys(args.p, args.n)
    lines = [f"c{i} = {c.text()}" for i, c in enumerate(cs, start=1)]
    lines += [
        f"abelianized c{i} = {c.text()}" for i, c in enumerate(comm, start=1)
    ]
    payload = {
        "p": args.p,
        "upto": args.n,
        "c": [c.text() for c in cs],
        "abelianized": [c.text() for c in comm],
    }
    return payload, lines


def cmd_whh(args):
    from .hochschild import (
        AlgebraSpec,
        SpecRing,
        classical_witt_group,
        hesselholt_seq_check,
    )

    A = AlgebraSpec.load(args.algebra)
    if args.n < 1:
        raise ParameterMismatch("level must be >= 1")
    # the sequence check builds levels 1 .. max(2, n), level n among them
    seq_level = max(1, args.n - 1)
    rep = hesselholt_seq_check(A, seq_level, args.limit)
    w = rep["levels"][args.n]
    factors = tuple(w.group.invariant_factors)
    name = os.path.splitext(os.path.basename(args.algebra))[0]
    lines = [
        f"W_{args.n}HH0({name}): order {w.group.order()}, "
        f"group {_format_factors(factors)}"
    ]
    payload = {
        "algebra": name,
        "n": args.n,
        "order": w.group.order(),
        "invariant_factors": list(factors),
    }
    if A.is_commutative():
        cl = classical_witt_group(SpecRing(A), A.p, args.n)
        match = factors == cl.invariant_factors
        lines.append(f"matches classical W_{args.n}: {str(match).lower()}")
        payload["matches_classical"] = match
    lines.append(
        f"restriction sequence at level {seq_level}: "
        f"R surjective {str(rep['R_surjective']).lower()}, "
        f"middle exact {str(rep['middle_exact']).lower()}, "
        f"V injective {str(rep['V_injective']).lower()}"
    )
    payload["sequence_level"] = seq_level
    payload["R_surjective"] = rep["R_surjective"]
    payload["middle_exact"] = rep["middle_exact"]
    payload["V_injective"] = rep["V_injective"]
    return payload, lines


def cmd_verify(args):
    from .verify import run_suite, suite_names

    if args.suite not in suite_names():
        raise ParameterMismatch(
            f"unknown suite {args.suite!r}; choose from {suite_names()}"
        )
    results = run_suite(args.suite)
    lines = []
    for r in results:
        tag = "pass" if r["pass"] else "fail"
        extra = f" ({r['detail']})" if r["detail"] else ""
        lines.append(f"{r['check']}: {tag}{extra}")
    passed = sum(1 for r in results if r["pass"])
    lines.append(f"{passed}/{len(results)} checks passed")
    payload = {
        "suite": args.suite,
        "results": results,
        "passed": passed,
        "total": len(results),
    }
    return payload, lines, (0 if passed == len(results) else 1)


# ---------------------------------------------------------------------------


def build_parser():
    top = argparse.ArgumentParser(
        prog="wittlab",
        description="Exact Witt vector arithmetic and its operator calculus.",
    )
    top.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    top.add_argument(
        "--limit", type=int, default=None,
        help="override the ambient word resource bound",
    )
    # accept the global flags after the subcommand too; SUPPRESS keeps the
    # subparser from clobbering values parsed before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), dest="fmt",
        default=argparse.SUPPRESS,
    )
    common.add_argument(
        "--limit", type=int, default=argparse.SUPPRESS,
        help="override the ambient word resource bound",
    )
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-polys", parents=[common],
                       help="print universal polynomials")
    g.add_argument("-p", type=int, required=True)
    g.add_argument("-n", type=int, required=True)
    g.add_argument(
        "--kind",
        choices=("sum", "product", "negation", "frobenius"),
        default="sum",
    )
    g.set_defaults(fn=cmd_gen_polys)

    pa = sub.add_parser("padic", parents=[common],
                        help="evaluate a Witt vector expression")
    pa.add_argument("-p", type=int, required=True)
    pa.add_argument("-n", type=int, required=True)
    pa.add_argument("expr")
    pa.set_defaults(fn=cmd_padic)

    b = sub.add_parser("big", parents=[common],
                       help="big Witt vector arithmetic over Z")
    b.add_argument("-N", type=int, required=True, help="truncation length")
    b.add_argument("vector", help="comma-separated components")
    b.add_argument("other", nargs="?", default=None)
    b.set_defaults(fn=cmd_big)

    q = sub.add_parser("qgroup", parents=[common],
                       help="structure of the level-n group")
    q.add_argument("-p", type=int, required=True)
    q.add_argument("-n", type=int, required=True)
    q.add_argument("-d", type=int, required=True)
    q.set_defaults(fn=cmd_qgroup)

    nc = sub.add_parser("ncpoly", parents=[common],
                        help="non-commutative splitting elements")
    nc.add_argument("-p", type=int, required=True)
    nc.add_argument("-n", type=int, required=True, help="solve c_1 .. c_n")
    nc.set_defaults(fn=cmd_ncpoly)

    wh = sub.add_parser("whh", parents=[common],
                        help="degree-0 Hochschild-Witt group")
    wh.add_argument("algebra", help="path to an algebra JSON file")
    wh.add_argument("-n", type=int, required=True)
    wh.set_defaults(fn=cmd_whh)

    v = sub.add_parser("verify", parents=[common],
                       help="run a self-check suite")
    v.add_argument("suite")
    v.set_defaults(fn=cmd_verify)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.limit is not None and args.limit < 1:
        print("limit must be positive", file=sys.stderr)
        return 2
    try:
        out = args.fn(args)
    except ResourceLimit as e:
        print(f"resource bound exceeded: {e}", file=sys.stderr)
        return 3
    except (ParameterMismatch, InvalidAlgebra, NotDivisible, NotPLocal) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2
    if len(out) == 3:
        payload, lines, code = out
    else:
        payload, lines = out
        code = 0
    if args.fmt == "json":
        doc = {"schema": SCHEMA, "command": args.command}
        doc.update(payload)
        print(json.dumps(doc, indent=1))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
