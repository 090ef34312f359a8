"""Command line interface.

Subcommands: family (the y'' = x*y + y^n*P(x,y) criterion), p2 and p3
(the two worked cases), replay (re-check a certificate file), ve (print
variational matrices for a field restricted along a curve), oracle
(numeric cross-validation of the jet machinery).  Exit codes: 0 a
verdict or report was produced, 1 bad input (a certificate that does
not replay included), 2 an internal consistency check failed.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .grammar import ParseError
from .jets import (EquationFamily, VectorFieldSpec, linearize,
                   normal_restrict, prolong, restrict_along_curve)
from .poly import RatFun
from .verdict import (CertificateError, check_p2, check_p3,
                      criterion_airy_family, replay)


class InputError(ValueError):
    pass


def _parse_field(text, params, indep):
    """Semicolon-separated assignments, e.g. "x = 1; y = z; z = x*y"."""
    coords, comps = [], []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError("field component %r is not 'name = expr'" % part)
        name, expr = part.split("=", 1)
        name = name.strip().rstrip("'")
        coords.append(name)
        comps.append(expr.strip())
    if not coords:
        raise InputError("empty field specification")
    if indep is None and comps[0].strip() == "1":
        indep = coords[0]
    try:
        return VectorFieldSpec(coords, comps, params=params, indep=indep)
    except (ParseError, ValueError) as e:
        raise InputError(str(e))


def _parse_curve(text, X):
    curve = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError("curve entry %r is not 'name = expr'" % part)
        name, expr = part.split("=", 1)
        curve[name.strip()] = expr.strip()
    missing = [c for c in X.deps if c not in curve]
    if missing:
        raise InputError("curve misses coordinates %s" % ", ".join(missing))
    return curve


def _entry(x):
    """An entry; a scalar with a space is wrapped, as a constant RatFun."""
    s = str(x)
    return "(%s)" % s if " " in s and not isinstance(x, RatFun) else s


def _print_matrix(A, labels=None):
    if labels:
        print("variables: %s" % ", ".join(labels))
    for row in A:
        print("[ " + ", ".join(_entry(x) for x in row) + " ]")


def _emit(cert, args):
    if getattr(args, "json", None):
        cert.save(args.json)
    print("verdict: %s" % cert.verdict)
    for rec in cert.find("note"):
        print("  note: %s" % rec["text"])


def cmd_family(args):
    try:
        fam = EquationFamily(args.n, args.P)
    except ValueError as e:
        raise InputError(str(e))
    cert = criterion_airy_family(fam)
    _emit(cert, args)
    return 0


def cmd_p2(args):
    cert = check_p2()
    _emit(cert, args)
    return 0


def cmd_p3(args):
    mus = []
    for m in args.mu or ["1/2"]:
        try:
            mus.append(Fraction(m))
        except (ValueError, ZeroDivisionError):
            raise InputError("bad rational %r" % m)
    try:
        cert = check_p3(mus)
    except ValueError as e:
        raise InputError(str(e))
    _emit(cert, args)
    return 0


def cmd_replay(args):
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError("cannot read certificate: %s" % e)
    try:
        count = replay(text)
    except CertificateError as e:
        raise InputError("certificate does not replay: %s" % e)
    print("replay: %d records verified" % count)
    return 0


def cmd_ve(args):
    X = _parse_field(args.field, tuple(args.param or ()), args.indep)
    J = prolong(X, args.order)
    if args.curve:
        try:
            J = restrict_along_curve(J, _parse_curve(args.curve, X))
        except ValueError as e:
            raise InputError(str(e))
    if args.normal:
        J = normal_restrict(J)
    if args.linearize:
        L = linearize(J)
        _print_matrix(L.matrix, L.labels)
    else:
        for v in J.vars:
            print("%s' = %s" % (v, J.rhs[v]))
    return 0


def cmd_oracle(args):
    from .oracle import numeric_ve_oracle
    X = _parse_field(args.field, tuple(args.param or ()), args.indep)
    if not args.curve:
        raise InputError("oracle needs --curve")
    curve = _parse_curve(args.curve, X)
    res = numeric_ve_oracle(X, curve, args.order, eps=args.eps)
    print("max relative residual at order %d, eps=%g: %.3e"
          % (args.order, args.eps, res))
    print("status: %s" % ("OK" if res < args.tol else
                          "ABOVE TOLERANCE %g" % args.tol))
    return 0 if res < args.tol else 2


def build_parser():
    ap = argparse.ArgumentParser(
        prog="irred",
        description="irreducibility certificates for y'' = x*y + y^n*P "
                    "equations and a Painleve III case")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="run the family criterion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--P", required=True, metavar="POLY",
                   help="P(x, y), polynomial in y, rational in x")
    p.add_argument("--json", metavar="FILE", help="write the certificate")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("p2", help="the y'' = x*y + 2*y^3 showcase")
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(func=cmd_p2)

    p = sub.add_parser("p3", help="Painleve III, parameters "
                       "(2*mu-1, -2*mu+1, 1, -1)")
    p.add_argument("--mu", action="append", metavar="RATIONAL",
                   help="rational non-integer; repeatable; default 1/2")
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(func=cmd_p3)

    p = sub.add_parser("replay", help="re-check every record of a "
                       "certificate file")
    p.add_argument("file", metavar="FILE")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("ve", help="print a (linearized) variational system")
    p.add_argument("--field", required=True,
                   help="e.g. \"x = 1; y = z; z = x*y + 2*y^3\"")
    p.add_argument("--curve",
                   help="invariant curve, e.g. \"y = 0; z = 0\"; each "
                        "coordinate a rational function of the independent "
                        "one, or a constant point where the field vanishes "
                        "when there is no independent coordinate")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--normal", action="store_true",
                   help="drop jets of the independent coordinate")
    p.add_argument("--linearize", action="store_true",
                   help="print the linear system in monomial variables")
    p.add_argument("--indep", help="independent coordinate name")
    p.add_argument("--param", action="append", help="parameter name")
    p.set_defaults(func=cmd_ve)

    p = sub.add_parser("oracle", help="numeric jet cross-validation")
    p.add_argument("--field", required=True)
    p.add_argument("--curve", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--indep", help="independent coordinate name")
    p.add_argument("--param", action="append", help="parameter name")
    p.set_defaults(func=cmd_oracle)
    return ap


def _join_dash_values(argv):
    """`--mu -7/3` as `--mu=-7/3`, `--P -x` as `--P=-x`: argparse takes a
    value that begins with '-' and is not a plain number for an option."""
    out = []
    for a in argv:
        if out and out[-1] in ("--mu", "--P") and a.startswith("-"):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(_join_dash_values(
        sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ValueError as e:
        # InputError, grammar ParseError, bad preconditions
        print("input error: %s" % e, file=sys.stderr)
        return 1
    except (CertificateError, RuntimeError, ArithmeticError) as e:
        print("internal check failure: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
