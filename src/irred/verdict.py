"""Irreducibility verdicts and machine-checkable certificates.

A Certificate is a plain JSON document {input, evidence[], verdict}.
Every evidence record carries the data needed to re-run its check from
the certificate alone (matrices verbatim, coefficient strings in the
textual grammar) plus a content hash, so certificates are diffable and
replayable bit for bit.  The claimed fields of a record are derived by
one function per kind (the *_claims functions below): the build writes
what it returns, and replay calls it on the record's inputs and compares
every field.  The identity kinds (bracket_identity, lincomb_identity)
are checked the same way: replay parses the graded matrices they take,
derives the expected matrix, and compares its canonical text with that
of the graded matrix they name as expected, which it never parses.

P3 records hold no parameter: each is written at mu = 1, over Q or Q(x).
A P3 matrix or vector names its grading, A1..A3 or At1..At3 (weights w of
jets.p3_weights(k)) or N (w = (3, 2, 1, 0, -1)), lists w as a claim and
has a shift s: its entry f(x) at (i, j), or at i, stands for
mu^(w_i - w_j + s) f(x/mu), or mu^(w_i + s) f(x/mu), so c_inf + c_0/x for
mu^e (c_inf + mu c_0/x); a lincomb coefficient of shift s for mu^s f(x/mu).
As x -> x/mu is a field map and diag(mu^w) conjugation respects sums,
products and brackets, an identity among records of one grading holds
over Q(mu) if and only if it holds at mu = 1 with balanced shifts; a
trace takes the exponent s; the scalar form of a 2 x 2 matrix of shift 0
whose Krylov row v_1, its last row, is constant differentiates no entry
and reads with exponent 0; and the parts C_inf, C_0 of a matrix of
c_inf + c_0/x entries are conjugated and scaled, so the Lie dimension is
the one at mu = 1.
Replay checks these at mu = 1 over Q and builds no FieldElem.

Verdict vocabulary: IRREDUCIBLE is only emitted when both required
pieces of evidence are present (an SL2-certified first variational
equation and a Lie dimension above 5).  A solvable obstruction gives
INCONCLUSIVE, never "reducible": the criterion is one-directional.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from .field import scalar
from .grammar import parse_ratfun
from .jets import (EquationFamily, _from_parts, build_lnve_airy_family,
                   build_p3_chain, p3_weights)
from .liealg import (_flat, associated_lie_algebra, block_e_matrices,
                     classify_lnve_lie_algebra, lie_closure, lie_dimension,
                     span_coordinates)
from .linear import (mat_bracket, mat_identity, mat_mul, mat_sub,
                     mat_transpose)
from .linops import (DiffOp, cyclic_vector_scalarize, parse_operator,
                     sym_power_chain, sym_power_operator)
from .mpoly import qdiv, qnorm
from .poly import Poly, RatFun, ratfun
from .ratsolve import (SolutionSpace, _clear_denominators,
                       _indicial_infinity, check_system_solution,
                       degree_bound, lift_solutions, rational_solutions)
from .screen import TAG_SL2, certify_sl2

# lie_closure is re-exported: perfbench's tracer test wraps this binding
__all__ = ["Certificate", "CertificateError", "INCONCLUSIVE", "IRREDUCIBLE",
           "check_p2", "check_p3", "criterion_airy_family", "lie_closure",
           "lnve_group_dimension", "reduced_form_obstruction", "replay"]

IRREDUCIBLE = "IRREDUCIBLE"
INCONCLUSIVE = "INCONCLUSIVE"

# Replay bounds on a lie_dimension record.  Honest records have 6x6 (p2)
# or 9x9 (p3) generators and claim dimension 8.  A larger matrix, or a
# closure let run past its claim, can keep replay busy for minutes on a
# file of a few kB, so replay refuses the first and stops the second.
MAX_LIE_GENERATOR_SIZE = 9   # the 9x9 order-3 constants of check_p3
MAX_LIE_DIMENSION = 16       # twice the dimension 8 of every honest record
# Replay bound on a rational_system record, checked before any Krylov
# product: Psi(n) is (n+2) x (n+2), 34 x 34 at the family budget n = 32;
# the P3 systems are 5 x 5.
MAX_SYSTEM_SIZE = 34


class CertificateError(RuntimeError):
    """A certificate failed to replay."""


def _mat_str(M):
    return [[str(x) for x in row] for row in M]


class _Parsed:
    """Values of the strings of one certificate, each distinct (text,
    var, params) parsed once, and its scalar equations, each solved once.

    One lives for one build or one replay call, so nothing parsed or
    solved from an untrusted certificate seeds a later replay.  Sharing
    values between records is safe because RatFun and DiffOp values are
    immutable.
    """

    def __init__(self):
        self.ratfuns, self.operators = {}, {}
        self.solved = []  # (L, g, SolutionSpace of L y = g)
        self.graded = {}  # name -> graded P3 record

    def entry(self, s, var, params):
        key = (s, var, params)
        if key not in self.ratfuns:
            self.ratfuns[key] = parse_ratfun(s, var, params)
        return self.ratfuns[key]

    def operator(self, s, var, params):
        key = (s, var, params)
        if key not in self.operators:
            self.operators[key] = parse_operator(s, var, params)
        return self.operators[key]

    def mat(self, rows, var, params):
        return [[self.entry(s, var, params) for s in row] for row in rows]

    def const_mat(self, rows, var, params):
        M = self.mat(rows, var, params)
        bad = next((f for row in M for f in row if not f.is_constant()), None)
        if bad is not None:
            raise CertificateError("expected constant entry %r" % str(bad))
        return [[f.constant_value() for f in row] for row in M]

    def add_graded(self, rec):
        """Check a graded P3 record, its weights against its grading and
        its shift and shape against them, and keep it by its new name."""
        w = _P3_GRADINGS.get(rec["grading"])
        _check_claims(rec, {"weights": w})
        matrix = rec["kind"] == "matrix"
        rows = rec["rows"] if matrix else [rec["entries"]]
        if not (type(rec["shift"]) is int and rec["name"] not in self.graded
                and len(rows) == (len(w) if matrix else 1)
                and all(len(row) == len(w) for row in rows)):
            raise CertificateError("%s %r: a shift that is no int, a name "
                                   "taken, or it is ragged or differs in "
                                   "shape from its weights"
                                   % (rec["kind"], rec["name"]))
        self.graded[rec["name"]] = rec

    def graded_mat(self, name, parse=None):
        """(record, its rows parsed by parse when given) of matrix name."""
        rec = self.graded.get(name) if isinstance(name, str) else None
        if rec is None or rec["kind"] != "matrix":
            raise CertificateError("no graded matrix named %r" % (name,))
        return rec, parse and parse(rec["rows"], rec.get("var", "t"), ())

    def solve(self, L, g):
        """rational_solutions(L, g), reusing the space of an earlier
        L y = g0 with g = c g0 for a nonzero constant c (scaled by c)."""
        for L0, g0, space in self.solved:
            # == raises on operators in different variables
            if L0.var == L.var and L0 == L and g and g0:
                c = g / g0
                if c.is_constant():
                    return space.scaled(c.constant_value())
        space = rational_solutions(L, g)
        self.solved.append((L, g, space))
        return space


# ---------------------------------------------------------------------------
# the claimed fields of each evidence kind, one derivation for build and
# replay; solve is the _Parsed.solve of the build or replay call

def _screen_claims(L):
    v = certify_sl2(L)
    return {"tag": v.tag, "reason": v.reason}


def _pole_claims(p, n):
    """A pole of order 1..n+2 at a finite point already blocks rational
    solvability of the family's scalar obstruction equation."""
    orders = sorted(p.pole_orders()[0].values())
    return {"orders": orders, "applies": any(1 <= k <= n + 2 for k in orders)}


def _degree_claims(L, g, solve):
    qs, _ = _clear_denominators(L)
    ind = _indicial_infinity(qs)
    space = solve(L, g)
    return {"sigma": max(q.degree() - i for i, q in enumerate(qs)
                         if not q.is_zero()),
            "indicial_infinity": str(ind.poly),
            "integer_roots": list(ind.integer_roots),
            # with denominator bound 1 the solver bounded the degree for L
            "degree_bound": space.degree if space.denominator == 1
            else degree_bound(L, g)}


def _scalar_claims(L, g, solve):
    space = solve(L, g)
    return {"solvable": space.particular is not None,
            "denominator": str(space.denominator), "degree": space.degree,
            "homogeneous_dimension": len(space.basis),
            "particular": None if space.particular is None
            else str(space.particular)}


def _solve_system(A, b, solve, expect=None):
    """SolutionSpace of F' = A F + b by the Krylov pass: the system is
    scalarized, its scalar equation solved through solve, and the
    solutions lifted and re-checked against the system.  With
    expect = (L, g) the scalar equation must be exactly L y = g, checked
    before the solve.  The P3 build and every replay of a
    rational_system record take this route; the family build takes its
    scalar form and lift in closed form (reduced_form_obstruction)."""
    res = cyclic_vector_scalarize(A, b)
    if expect is not None and not (res.op == expect[0]
                                   and res.rhs == expect[1]):
        raise RuntimeError("the system does not scalarize to (%s) y = %s"
                           % expect)
    return lift_solutions(A, b, res, solve(res.op, res.rhs))


def _system_claims(space):
    """Claims of a rational_system record, from _solve_system's space."""
    return {"solvable": space.particular is not None,
            "homogeneous_dimension": len(space.basis)}


def _lie_claims(gens, limit=None):
    return {"dimension": lie_dimension(gens, limit)}


def _bracket(c, A, B):
    """c [A, B], entrywise canonical."""
    return [[qnorm(c * x) for x in row] for row in mat_bracket(A, B)]


def _parts(M):
    """(C_inf, C_0) of a matrix over Q(x) of entries f = c_inf + c_0/x,
    read off the coefficients of x f (f is reduced, its monic denominator
    1 or x); an entry of another form raises ValueError."""
    xfs = [[(0,) + f.num.coeffs if len(f.den.coeffs) == 1 else f.num.coeffs
            if f.den.coeffs == (0, 1) else (0,) * 3 for f in row] for row in M]
    if any(len(c) > 2 for row in xfs for c in row):
        raise ValueError("an entry is not of the form c_inf + c_0/x")
    return tuple([[(c + (0, 0))[k] for c in row] for row in xfs]
                 for k in (1, 0))


def _check_claims(rec, claims):
    """Each claimed field of rec must be what its inputs give, as JSON."""
    for field, value in claims.items():
        got, want = json.dumps(value), json.dumps(rec[field])
        if got != want:
            raise CertificateError("%s.%s changed: %s vs %s"
                                   % (rec["kind"], field, got, want))


def _record_hash(record):
    body = {k: v for k, v in record.items() if k != "hash"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Certificate:
    """Input description, the graded P3 matrices that evidence names,
    evidence chain, final verdict."""

    def __init__(self, input_desc):
        self.input = dict(input_desc)
        self.graded = []
        self.evidence = []
        self.verdict = None

    def add(self, kind, section=None, **fields):
        record = {"kind": kind}
        record.update(fields)
        record["hash"] = _record_hash(record)
        (self.evidence if section is None else section).append(record)
        return record

    def find(self, kind):
        return [r for r in self.evidence if r["kind"] == kind]

    def to_dict(self):
        d = {"input": self.input}
        if self.graded:
            d["graded"] = self.graded
        d.update(evidence=self.evidence, verdict=self.verdict)
        return d

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_dict(cls, d):
        if not (isinstance(d, dict) and isinstance(d.get("input"), dict)
                and isinstance(d.get("evidence"), list)
                and isinstance(d.get("graded", []), list)
                and all(isinstance(r, dict)
                        for r in d["evidence"] + d.get("graded", []))
                and "verdict" in d):
            raise CertificateError(
                "a certificate is an object with an input object, evidence "
                "(and for P3 graded) lists of objects and a verdict")
        cert = cls(d["input"])
        cert.graded = [dict(r) for r in d.get("graded", [])]
        cert.evidence = [dict(r) for r in d["evidence"]]
        cert.verdict = d["verdict"]
        return cert

    @classmethod
    def from_json(cls, text):
        try:
            d = json.loads(text)
        except (ValueError, RecursionError) as e:
            raise CertificateError("certificate is not JSON: %s" % e)
        return cls.from_dict(d)

    def replay(self):
        """Re-run every embedded check; raises CertificateError on any
        mismatch, returns the number of evidence records verified.

        The graded records go first, so an evidence record replays with
        what it names alone as with the others.  Every record's hash is
        checked; a record whose hash matches one already replayed in this
        call has the same body and is not re-run.  Each distinct entry or
        operator string is parsed once per call, and each scalar equation
        L y = g is solved once per call: the degree_argument,
        scalar_rational and rational_system records of one obstruction
        (whose system scalarizes to L y = c g) share it.
        """
        verified = set()
        parsed = _Parsed()
        for what, records in (("graded record", self.graded),
                              ("record", self.evidence)):
            for i, rec in enumerate(records):
                h = _record_hash(rec)
                if h != rec.get("hash"):
                    raise CertificateError("%s %d: hash mismatch" % (what, i))
                if h in verified:
                    continue
                try:
                    _replay_record(rec, parsed)
                except CertificateError:
                    raise
                except Exception as e:
                    raise CertificateError("%s %d (%s): %s"
                                           % (what, i, rec.get("kind"), e))
                verified.add(h)
        return len(self.evidence)


def _replay_record(rec, parsed):
    kind = rec["kind"]
    var = rec.get("var", "t")
    params = tuple(rec.get("params", ()))
    if kind in ("matrix", "vector") and "grading" in rec:
        return parsed.add_graded(rec)
    if kind in ("matrix", "operator", "note", "vector"):
        return  # data witness; hash already checked
    # the identity kinds, on the graded P3 records they name at mu = 1:
    # the expected side is compared as canonical text, never parsed
    if kind == "trace_zero":
        _, M = parsed.graded_mat(rec["matrix"], parsed.mat)
        if sum((M[i][i] for i in range(len(M))), RatFun.zero(M[0][0].var)):
            raise CertificateError("trace is not zero")
        return
    if kind == "operator_identity":
        g, M = parsed.graded_mat(rec["matrix"], parsed.mat)
        if not (len(M) == 2 and g["shift"] == 0 and M[1][0]
                and all(f.is_constant() for f in M[1])):
            raise CertificateError("an operator identity needs a 2 x 2 "
                                   "matrix of shift 0 whose Krylov row v_1 "
                                   "(its last row) is constant, not 0 first")
        if str(cyclic_vector_scalarize(M).op) != rec["operator"]:
            raise CertificateError("operator identity fails")
        return
    if kind in ("bracket_identity", "lincomb_identity"):
        e, _ = parsed.graded_mat(rec["expect"])
        if kind == "bracket_identity":
            # the inputs are constants, so the bracket runs over Q
            (a, A), (b, B) = (parsed.graded_mat(rec[f], parsed.const_mat)
                              for f in "ab")
            c = parsed.const_mat([[rec.get("coeff", "1")]], var, ())[0][0]
            got, gs = _bracket(c, A, B), [a, b]
            shifts = [a["shift"] + b["shift"]]
        else:
            got, gs, shifts = None, [], []
            for cstr, shift, name in rec["terms"]:
                g, M = parsed.graded_mat(name, parsed.mat)
                gs.append(g)
                shifts.append(shift + g["shift"])
                c = parsed.entry(cstr, var, ())
                got = [[c * x if got is None else got[i][j] + c * x
                        for j, x in enumerate(row)] for i, row in enumerate(M)]
        if any(g["weights"] != e["weights"] for g in gs) or any(
                type(t) is not int or t != e["shift"] for t in shifts):
            raise CertificateError("%r mixes gradings, or its shifts do not "
                                   "balance" % rec.get("relation"))
        if got is None or _mat_str(got) != e["rows"]:
            raise CertificateError("identity %r fails" % rec.get("relation"))
        return
    # the claim kinds: parse the inputs, derive the claims, compare
    if kind == "screen":
        claims = _screen_claims(parsed.operator(rec["operator"], var, params))
    elif kind == "pole_shortcut":
        claims = _pole_claims(parsed.entry(rec["p"], var, params), rec["n"])
    elif kind in ("degree_argument", "scalar_rational"):
        derive = (_degree_claims if kind == "degree_argument"
                  else _scalar_claims)
        claims = derive(parsed.operator(rec["operator"], var, params),
                        parsed.entry(rec["rhs"], var, params), parsed.solve)
    elif kind == "rational_system":
        rows, rhs = rec["matrix"], rec["rhs"]
        if params or not (0 < len(rows) <= MAX_SYSTEM_SIZE
                          and len(rhs) == len(rows)
                          and all(len(row) == len(rows) for row in rows)):
            raise CertificateError("a system matrix must be over Q, square "
                                   "and at most %d x %d, with a rhs of its "
                                   "size" % ((MAX_SYSTEM_SIZE,) * 2))
        A = parsed.mat(rows, var, params)
        b = [parsed.entry(s, var, params) for s in rhs]
        claims = _system_claims(_solve_system(A, b, parsed.solve))
    elif kind == "lie_dimension":
        claimed = rec["dimension"]
        if type(claimed) is not int or not 0 <= claimed <= MAX_LIE_DIMENSION:
            raise CertificateError("claimed lie dimension %r is not an "
                                   "integer from 0 to %d"
                                   % (claimed, MAX_LIE_DIMENSION))
        if "matrix" in rec:
            # the parts of a graded P3 matrix, at most 9 x 9 by its grading
            gens = _parts(parsed.graded_mat(rec["matrix"], parsed.mat)[1])
        else:
            for g in rec["generators"]:
                if not (0 < len(g) <= MAX_LIE_GENERATOR_SIZE
                        and all(len(row) == len(g) for row in g)):
                    raise CertificateError("generators must be square, at "
                                           "most %d x %d"
                                           % ((MAX_LIE_GENERATOR_SIZE,) * 2))
            gens = [parsed.const_mat(g, var, params)
                    for g in rec["generators"]]
        # the closure stops as soon as its span passes the claim
        claims = _lie_claims(gens, claimed)
    else:
        raise CertificateError("unknown evidence kind %r" % kind)
    _check_claims(rec, claims)


def replay(cert) -> int:
    """Replay a Certificate, a dict, or a JSON string."""
    if isinstance(cert, str):
        cert = Certificate.from_json(cert)
    elif isinstance(cert, dict):
        cert = Certificate.from_dict(cert)
    return cert.replay()


# ---------------------------------------------------------------------------
# the reduced-form obstruction for the Airy family

def _family_psi(n):
    """Adjoint action of the block system matrix on the recursion basis.

    In closed form: -transpose(sym^(n+1)([[0, 1], [t, 0]])).  With
    m = n + 1, sym_power_matrix puts k + 1 at (k, k + 1) and (m - k + 1) t
    at (k, k - 1), and nothing else, so Psi has -(k + 1) at (k + 1, k)
    and -(m - k + 1) t at (k - 1, k); it is built entry by entry.
    """
    m = n + 1
    zero = RatFun.zero("t")
    Psi = [[zero] * (m + 1) for _ in range(m + 1)]
    for k in range(m):
        Psi[k + 1][k] = RatFun.const(-(k + 1), "t")
        Psi[k][k + 1] = RatFun(Poly([0, -(m - k)], "t"))
    return Psi


def reduction_matrix(n, F):
    """Gauge P = Id + sum F_i E_i removing the off-diagonal block."""
    m = n + 3
    flat = mat_mul([F], [_flat(E) for E in block_e_matrices(n)])[0]
    return [[x + flat[i * m + j] for j, x in enumerate(row)]
            for i, row in enumerate(mat_identity(m, RatFun.const(1, "t")))]


def _family_lift(chain, y):
    """The vector F of F' = Psi(n) F + b whose last entry is y, in closed
    form: with m = n + 1 and chain = L_0, ..., L_m, ... of
    sym_power_chain(D^2 - t, m), F_(m-k) = (-1)^k (m-k)!/m! L_k(y) for
    k = 0..m (0-based entries).  It is linear in y."""
    m = len(chain) - 2
    derivs = [y]
    for _ in range(m):
        derivs.append(derivs[-1].derivative())
    zero = RatFun.zero(y.var)
    F = [None] * (m + 1)
    for k in range(m + 1):
        Lky = sum((c * d for c, d in zip(chain[k].coeffs, derivs) if c and d),
                  zero)
        F[m - k] = Lky * qdiv((-1) ** k * math.factorial(m - k),
                              math.factorial(m))
    return F


def reduced_form_obstruction(n, p, chain=None, solve=rational_solutions):
    """(Psi, b, SolutionSpace) for the off-diagonal reduction of (NVE_n).

    Empty means the Lie algebra is the full sl2 x Sym^(n+1) of dimension
    n+5; solvable means sl2, and the solution space carries the
    reduction gauge as .reduction.

    The system F' = Psi F + b is equivalent to the scalar equation
    L y = (-1)^(n+1) (n+1)! p with L = Sym^(n+1)(D^2 - t) and y the last
    entry of F: the symmetric power of the companion system (Bronstein,
    Mulders & Weil, ISSAC 1997), checked for every n the input budget
    allows by a Tier-1 test against the Krylov pass.  chain is
    sym_power_chain(D^2 - t, n + 1), whose last operator is L (a caller
    that has built it passes it).  The scalar equation is solved once
    through solve (a build passes its solve-once table), and each
    solution is lifted by the closed form of _family_lift and
    re-substituted into the system.
    """
    if n < 2:
        raise ValueError("family needs n >= 2")
    p = ratfun(p, "t")
    Psi = _family_psi(n)
    zero = RatFun.zero("t")
    b = [p] + [zero] * (n + 1)
    if chain is None:
        chain = sym_power_chain(_airy_ve1(), n + 1)
    c = (-1) ** (n + 1) * math.factorial(n + 1)
    scalar_space = solve(chain[-1], c * p)
    part = None
    if scalar_space.particular is not None:
        part = _family_lift(chain, scalar_space.particular)
        check_system_solution(Psi, b, part)
    basis = [_family_lift(chain, y) for y in scalar_space.basis]
    for F in basis:
        check_system_solution(Psi, None, F)
    space = SolutionSpace(part, basis, scalar_space.denominator,
                          scalar_space.degree)
    space.reduction = None if part is None else reduction_matrix(n, part)
    return Psi, b, space


def lnve_group_dimension(n, p):
    """(dimension, classification) of the Lie algebra of (LNVE_n)."""
    _, _, space = reduced_form_obstruction(n, p)
    d = 3 if space.particular is not None else n + 5
    return d, classify_lnve_lie_algebra(d, n)


# ---------------------------------------------------------------------------
# the Airy family criterion

def _airy_ve1():
    return parse_operator("D^2 - t")


def criterion_airy_family(family) -> Certificate:
    """Irreducibility certificate for y'' = x y + y^n P(x, y).

    On the full path the off-diagonal system is taken in its closed scalar
    form Sym^(n+1)(D^2 - t) y = c p, with no Krylov pass: one
    sym_power_chain gives L and the operators that lift a solution, and
    reduced_form_obstruction solves L y = c p once through the build's
    solve-once table, which the degree_argument and scalar_rational
    claims of L y = p then read, as in replay.
    """
    if not isinstance(family, EquationFamily):
        raise ValueError("expected an EquationFamily")
    n = family.n
    p = family.p()
    cert = Certificate({
        "equation": "y'' = x*y + y^%d * P(x, y)" % n,
        "n": n, "P": str(family.P), "p": str(p), "variable": "t",
    })

    # hypothesis 1: the first variational equation has group SL(2, C)
    ve1 = _airy_ve1()
    screen = _screen_claims(ve1)
    cert.add("screen", operator=str(ve1), var="t", **screen)
    if screen["tag"] != TAG_SL2:
        cert.verdict = INCONCLUSIVE
        return cert

    if not p:
        cert.add("note", text="p = 0: the normal variational equation "
                 "decouples and carries no obstruction")
        cert.verdict = INCONCLUSIVE
        return cert

    # fast path: a pole of order 1..n+2 already blocks rational solvability
    pole = _pole_claims(p, n)
    cert.add("pole_shortcut", p=str(p), var="t", n=n, **pole)
    if pole["applies"]:
        cert.add("note", text="pole of order between 1 and %d at a finite "
                 "point: the scalar obstruction equation has no rational "
                 "solution, so the Lie algebra has dimension %d > 5"
                 % (n + 2, n + 5))
        cert.verdict = IRREDUCIBLE
        return cert

    # full path: the off-diagonal system and its scalar form, solved once
    solve = _Parsed().solve
    chain = sym_power_chain(ve1, n + 1)
    L = chain[-1]
    Psi, b, space = reduced_form_obstruction(n, p, chain, solve)
    text = str(L)
    cert.add("operator", name="sym^%d of the first variational operator"
             % (n + 1), var="t", text=text)
    cert.add("degree_argument", operator=text, rhs=str(p), var="t",
             **_degree_claims(L, p, solve))
    scalar_rec = _scalar_claims(L, p, solve)
    cert.add("scalar_rational", operator=text, rhs=str(p), var="t",
             **scalar_rec)
    cert.add("rational_system", matrix=_mat_str(Psi), rhs=[str(x) for x in b],
             var="t", **_system_claims(space))

    if not scalar_rec["solvable"]:
        cert.add("note", text="no rational solution: Lie algebra dimension "
                 "%d > 5" % (n + 5))
        cert.verdict = IRREDUCIBLE
    else:
        cert.add("matrix", name="reduction gauge", var="t",
                 rows=_mat_str(space.reduction))
        cert.add("note", text="obstruction solvable: Lie algebra sl2 of "
                 "dimension 3, criterion silent")
        cert.verdict = INCONCLUSIVE
    return cert


def check_p2() -> Certificate:
    """Both published routes for y'' = x y + 2 y^3; they must agree."""
    fam = EquationFamily(3, 2)
    p = fam.p()
    cert = Certificate({"equation": "y'' = x*y + 2*y^3", "name": "P2",
                        "variable": "t"})

    # route 2, the scalar criterion, runs first: it solves the same
    # obstruction system that route 1 records
    sub = criterion_airy_family(fam)
    system, = sub.find("rational_system")

    # route 1: third variational system, Lie closure, obstruction system
    A = build_lnve_airy_family(3, p)
    cert.add("matrix", name="third normal variational system", var="t",
             rows=_mat_str(A))
    coeffs, mats = associated_lie_algebra(A)
    lie = _lie_claims(mats)
    dim = lie["dimension"]
    cert.add("lie_dimension", var="t",
             generators=[_mat_str(M) for M in mats],
             coefficients=[str(c) for c in coeffs], **lie,
             classification=classify_lnve_lie_algebra(dim, 3))
    cert.evidence.append(dict(system))
    route1 = (dim > 5 and not system["solvable"])

    cert.evidence += [dict(rec) for rec in sub.evidence]
    route2 = sub.verdict == IRREDUCIBLE

    if route1 != route2:
        raise RuntimeError("the two routes disagree")
    cert.add("note", text="both routes agree: Lie dimension %d > 5 and the "
             "scalar obstruction has no rational solution" % dim)
    cert.verdict = IRREDUCIBLE if route1 else sub.verdict
    return cert


# ---------------------------------------------------------------------------
# the Painleve III chain

def _p3_n_basis():
    """Constant 9x9 matrices N_1..N_5 over Q spanning the bottom-left
    block."""
    blocks = [
        [[0, 0, 0, 0], [1, 0, 0, 0]],
        [[1, 0, 0, 0], [0, -1, 0, 0]],
        [[0, 1, 0, 0], [0, 0, -1, 0]],
        [[0, 0, 1, 0], [0, 0, 0, -1]],
        [[0, 0, 0, 1], [0, 0, 0, 0]],
    ]
    out = []
    for blk in blocks:
        M = [[0] * 9 for _ in range(9)]
        M[7][:4], M[8][:4] = blk
        out.append(M)
    return out


def _p3_g_display(m):
    """Right side of the scalar obstruction equation for the P3 chain,
    at the rational parameter value mu = m."""
    return parse_ratfun(
        ("8192*mu^4/x + 5120*(4*mu + 1)*mu^4/x^2"
         " + 512*(24*mu^2 + 16*mu - 7)*mu^4/x^3"
         " - 256*(31*mu + 3)*mu^4/x^4 + 768*mu^4/x^5").replace(
             "mu", "(%s)" % m), "x")


# the weights each P3 grading name stands for (see the module docstring)
_P3_GRADINGS = dict([("N", [3, 2, 1, 0, -1])] + [
    (prefix + str(k), w) for k in (1, 2, 3)
    for prefix, w in zip(("A", "At"), p3_weights(k))])


def _at_mu(M, rows, cols, shift, m):
    """M at the rational mu = m by the reading rule: the entry
    c_inf + c_0/x at (i, j) becomes m^e (c_inf + m c_0/x),
    e = rows_i - cols_j + shift."""
    parts = ([[qnorm(c * m ** (r - s + shift + k)) for c, s in zip(row, cols)]
              for row, r in zip(P, rows)] for k, P in enumerate(_parts(M)))
    return _from_parts(*parts, M[0][0].var)


def p3_psi_and_b(chain):
    """(Psi, Psi1, Psi2, b) of the order-3 off-diagonal reduction, at
    mu = 1, with the N grading: Psi and b of shift 0, Psi1 of shift 1 and
    Psi2 of shift -1.

    Psi is the adjoint action of the block part of the third gauged
    variational matrix of the chain on N_1..N_5; b collects the
    off-block coefficients.  Both are linear in that matrix, so each is
    computed on its constant parts over Q and built as P_inf + P_0/x;
    Psi1 = P_0, and Psi = (1/mu + 1/x) Psi1 + 4 mu Psi2 defines
    Psi2 = (P_inf - P_0)/4.
    """
    Ns = _p3_n_basis()
    At3 = chain.unit_parts["At3"]
    diags = [[r if i < 7 else [0] * 4 + r[4:] for i, r in enumerate(C)]
             for C in At3]
    offs = [mat_sub(C, d) for C, d in zip(At3, diags)]
    # both parts' off-block coordinates and brackets [diag, N_j] in the N
    # basis: one elimination of its 81x5 matrix
    try:
        coords = span_coordinates(
            offs + [mat_bracket(d, N) for d in diags for N in Ns], Ns)
    except ValueError:
        raise RuntimeError("off-diagonal block or bracket outside the N span")
    Cinf, C0 = (mat_transpose(coords[2 + 5 * k:7 + 5 * k]) for k in range(2))
    Psi2 = [[qdiv(ci - c0, 4) for ci, c0 in zip(ri, r0)]
            for ri, r0 in zip(Cinf, C0)]
    b, = _from_parts([coords[0]], [coords[1]], "x")
    return _from_parts(Cinf, C0, "x"), C0, Psi2, b


def check_p3(mus=(Fraction(1, 2),)) -> Certificate:
    """Certificate for the Painleve III case, parameters (2mu-1,-2mu+1,1,-1).

    The structural identities run once, at mu = 1 over Q, on graded
    records (see the module docstring); the rational-solution obstruction
    runs at each requested rational non-integer mu, on Psi, b and L2
    regraded there, where F' = Psi F + b scalarizes exactly to
    Sym^4(L2) y = -g, L2 = D^2 - 4 - 4*mu/x and g the displayed right side
    (checked); that one scalar equation is solved once, through the
    build's solve-once table, for the rational_system and scalar_rational
    claims.  An integer mu is refused at once, with no witness search.
    """
    mus = [scalar(m) for m in mus]
    if not mus:
        raise ValueError("check_p3 needs at least one mu: the verdict rests "
                         "on the obstruction at each of them")
    for m in mus:
        if m == 0:
            raise ValueError("Q1 singular")
        if m.denominator == 1:
            raise ValueError(
                "at integer mu=%s, D^2 - 4 - 4*mu/x has an exponential "
                "solution (its polynomial part has degree |mu|), so its "
                "group is not SL(2)" % m)

    var = "x"
    cert = Certificate({
        "equation": "Painleve III, parameters (2*mu-1, -2*mu+1, 1, -1)",
        "name": "P3", "variable": "x",
        "mu_values": [str(m) for m in mus],
    })

    ch = build_p3_chain()
    U = ch.unit_parts
    At1, At2, At3 = (_from_parts(*U["At%d" % k], var) for k in (1, 2, 3))
    # order 2: At2 = (1/mu + 1/x) M1 + M2, M3 = (1/(8 mu)) [M1, M2]
    M1, M2 = U["At2"][1], mat_sub(*U["At2"])
    M3 = _bracket(Fraction(1, 8), M1, M2)
    Psi, Psi1, Psi2, b = p3_psi_and_b(ch)
    for name, grading, shift, M in (
            ("A1", "A1", 0, _from_parts(*U["A1"], var)),
            ("Q1", "A1", 1, ch.Q1), ("At1", "At1", 0, At1),
            ("At2", "At2", 0, At2), ("At3", "At3", 0, At3),
            ("M1", "At2", 1, M1), ("M2", "At2", 0, M2), ("M3", "At2", 0, M3),
            ("Psi", "N", 0, Psi), ("Psi1", "N", 1, Psi1),
            ("Psi2", "N", -1, Psi2), ("Psi3", "N", 0, _bracket(1, Psi1, Psi2)),
            ("b", "N", 0, b)):
        kind, text = (("vector", dict(entries=[str(f) for f in M]))
                      if name == "b" else ("matrix", dict(rows=_mat_str(M))))
        cert.add(kind, cert.graded, name=name, var=var, grading=grading,
                 weights=_P3_GRADINGS[grading], shift=shift, **text)

    # the covector of At1 is e_2, as At1[1][0] = 4 is a nonzero constant,
    # and its Krylov row v_1 = (4, 0) is constant; the parts of At3
    # generate a Lie algebra of dimension 8
    op1 = cyclic_vector_scalarize(At1).op
    l2 = parse_operator("D^2 - 4 - 4/x", var)
    lie = _lie_claims(list(U["At3"]))
    if not (op1 == l2 and _bracket(-1, M1, M3) == M1
            and _bracket(1, M2, M3) == M2 and lie["dimension"] == 8):
        raise RuntimeError("the scalar form of At1, the order-2 bracket "
                           "table or the order-3 Lie dimension fails")
    c1 = str(1 + 1 / RatFun.gen(var))  # 1/mu + 1/x, of shift -1
    for kind, fields in (
            ("trace_zero", dict(matrix="At1")),
            ("operator_identity", dict(matrix="At1", operator=str(op1))),
            ("lincomb_identity", dict(
                relation="At2 = (1/mu + 1/x) M1 + M2",
                terms=[[c1, -1, "M1"], ["1", 0, "M2"]], expect="At2")),
            ("bracket_identity", dict(relation="[M1, M3] = -M1", a="M1",
                                      b="M3", coeff="-1", expect="M1")),
            ("bracket_identity", dict(relation="[M2, M3] = M2", a="M2",
                                      b="M3", expect="M2")),
            ("lie_dimension", dict(matrix="At3", **lie,
                                   classification=None)),
            ("lincomb_identity", dict(
                relation="Psi = (1/mu + 1/x) Psi1 + 4 mu Psi2",
                terms=[[c1, -1, "Psi1"], ["4", 1, "Psi2"]], expect="Psi")),
            ("bracket_identity", dict(relation="Psi3 = [Psi1, Psi2]",
                                      a="Psi1", b="Psi2", expect="Psi3"))):
        cert.add(kind, var=var, **fields)

    # pointwise obstruction at each requested mu, on the unit records
    # regraded there
    n = _P3_GRADINGS["N"]
    all_ok = True
    solve = _Parsed().solve
    for m in mus:
        l2m = DiffOp(_at_mu([l2.coeffs], (0,), (0,) * 3, 0, m)[0])
        screen = _screen_claims(l2m)
        cert.add("screen", operator=str(l2m), var=var, **screen, mu=str(m))
        if screen["tag"] != TAG_SL2:
            all_ok = False
            continue
        Psim = _at_mu(Psi, n, n, 0, m)
        bm, = _at_mu([b], (0,), [-e for e in n], 0, m)
        # the system scalarizes to Sym^4(l2m) y = -g_m: one scalar solve
        L4m = sym_power_operator(l2m, 4)
        gm = _p3_g_display(m)
        space = _solve_system(Psim, bm, solve, (L4m, -gm))
        cert.add("rational_system", matrix=_mat_str(Psim),
                 rhs=[str(f) for f in bm], var=var, mu=str(m),
                 **_system_claims(space))
        cert.add("scalar_rational", operator=str(L4m), rhs=str(gm), var=var,
                 mu=str(m), **_scalar_claims(L4m, gm, solve))
        if space.particular is not None:
            all_ok = False

    cert.verdict = IRREDUCIBLE if all_ok else INCONCLUSIVE
    return cert
