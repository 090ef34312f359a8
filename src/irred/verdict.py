"""Irreducibility verdicts and machine-checkable certificates.

A Certificate is a plain JSON document {input, evidence[], verdict}.
Every evidence record carries the data needed to re-run its check from
the certificate alone (matrices verbatim, coefficient strings in the
textual grammar) plus a content hash, so certificates are diffable and
replayable bit for bit.  The claimed fields of a record are derived by
one function per kind (the *_claims functions below): the build writes
what it returns, and replay calls it on the record's inputs and compares
every field.  The identity kinds (decomposition, bracket_identity,
lincomb_identity) are checked the same way: replay parses their inputs,
derives the expected matrix, and compares its canonical text with the
record's, which it never parses.

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

from .field import FieldElem, scalar
from .grammar import parse_ratfun
from .jets import (EquationFamily, _from_parts, build_lnve_airy_family,
                   build_p3_chain, mu_graded)
from .liealg import (_flat, associated_lie_algebra, block_e_matrices,
                     classify_lnve_lie_algebra, lie_closure, lie_dimension,
                     span_coordinates)
from .linear import (mat_bracket, mat_identity, mat_mul, mat_sub,
                     mat_transpose)
from .linops import (cyclic_vector_scalarize, parse_operator,
                     sym_power_chain, sym_power_operator)
from .mpoly import qdiv
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


def _one_shape(mats, square=False):
    """Raise unless mats holds at least one matrix (a list of rows), all
    rectangular and of one shape, and square when asked."""
    heights = {len(M) for M in mats}
    widths = {len(row) for M in mats for row in M}
    if len(heights) != 1 or len(widths) > 1 or (square and widths - heights):
        raise CertificateError("matrices are ragged or differ in shape")


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
    """Input description, evidence chain, final verdict."""

    def __init__(self, input_desc):
        self.input = dict(input_desc)
        self.evidence = []
        self.verdict = None

    def add(self, kind, **fields):
        record = {"kind": kind}
        record.update(fields)
        record["hash"] = _record_hash(record)
        self.evidence.append(record)
        return record

    def find(self, kind):
        return [r for r in self.evidence if r["kind"] == kind]

    def to_dict(self):
        return {"input": self.input, "evidence": self.evidence,
                "verdict": self.verdict}

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
                and all(isinstance(r, dict) for r in d["evidence"])
                and "verdict" in d):
            raise CertificateError(
                "a certificate is an object with an input object, an "
                "evidence list of objects and a verdict")
        cert = cls(d["input"])
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
        mismatch, returns the number of records verified.

        Every record's hash is checked; a record whose hash matches one
        already replayed in this call has the same body and is not re-run.
        Each distinct entry or operator string is parsed once per call,
        and each scalar equation L y = g is solved once per call: the
        degree_argument, scalar_rational and rational_system records of
        one obstruction (whose system scalarizes to L y = c g) share it.
        """
        verified = set()
        parsed = _Parsed()
        for i, rec in enumerate(self.evidence):
            h = _record_hash(rec)
            if h != rec.get("hash"):
                raise CertificateError("record %d: hash mismatch" % i)
            if h in verified:
                continue
            try:
                _replay_record(rec, parsed)
            except CertificateError:
                raise
            except Exception as e:
                raise CertificateError("record %d (%s): %s"
                                       % (i, rec.get("kind"), e))
            verified.add(h)
        return len(self.evidence)


def _replay_record(rec, parsed):
    kind = rec["kind"]
    var = rec.get("var", "t")
    params = tuple(rec.get("params", ()))
    if kind in ("matrix", "operator", "note", "vector"):
        return  # data witness; hash already checked
    if kind == "trace_zero":
        M = parsed.mat(rec["matrix"], var, params)
        tr = sum((M[i][i] for i in range(len(M))), RatFun.zero(var, params))
        if tr:
            raise CertificateError("trace is not zero")
        return
    # the identity kinds: parse the inputs, derive the expected side and
    # compare its canonical text, which replay never parses
    if kind == "decomposition":
        _one_shape([rec["cinf"], rec["c0"]])
        Ci = parsed.const_mat(rec["cinf"], var, params)
        C0 = parsed.const_mat(rec["c0"], var, params)
        if _mat_str(_from_parts(Ci, C0, var, params)) != rec["matrix"]:
            raise CertificateError("matrix is not cinf + c0/x")
        return
    if kind == "bracket_identity":
        # the inputs are constants, so the bracket runs over Q(params)
        _one_shape([rec["a"], rec["b"]], square=True)
        A = parsed.const_mat(rec["a"], var, params)
        B = parsed.const_mat(rec["b"], var, params)
        c = parsed.const_mat([[rec.get("coeff", "1")]], var, params)[0][0]
        got = [[c * x for x in row] for row in mat_bracket(A, B)]
        if _mat_str(_const_to_rat(got, var, params)) != rec["expect"]:
            raise CertificateError("bracket identity %r fails"
                                   % rec.get("relation"))
        return
    if kind == "lincomb_identity":
        _one_shape([rows for _, rows in rec["terms"]])
        acc = [[RatFun.zero(var, params)] * len(row)
               for row in rec["terms"][0][1]]
        for cstr, rows in rec["terms"]:
            c = parsed.entry(cstr, var, params)
            M = parsed.mat(rows, var, params)
            acc = [[a + c * x for a, x in zip(ra, rm)]
                   for ra, rm in zip(acc, M)]
        if _mat_str(acc) != rec["expect"]:
            raise CertificateError("linear combination identity %r fails"
                                   % rec.get("relation"))
        return
    if kind == "operator_identity":
        a = parsed.operator(rec["a"], var, params)
        b = parsed.operator(rec["b"], var, params)
        if not (a == b):
            raise CertificateError("operator identity fails")
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
        for g in rec["generators"]:
            if not (0 < len(g) <= MAX_LIE_GENERATOR_SIZE
                    and all(len(row) == len(g) for row in g)):
                raise CertificateError("generators must be square, at "
                                       "most %d x %d"
                                       % ((MAX_LIE_GENERATOR_SIZE,) * 2))
        gens = [parsed.const_mat(g, var, params) for g in rec["generators"]]
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


def _const_to_rat(M, var, params):
    return [[RatFun.const(x, var, params) for x in row] for row in M]


def p3_psi_and_b(chain):
    """(Psi, Psi1, Psi2, b) of the order-3 off-diagonal reduction.

    Psi is the adjoint action of the block part of the third gauged
    variational matrix of the chain on N_1..N_5; b collects the
    off-block coefficients.  Both are linear in that matrix, so each is
    computed on its constant parts at mu = 1 over Q, then regraded (N_j
    scales as mu^(n_j): Psi_ij carries mu^(n_i - n_j), b_i mu^(n_i),
    times mu in P_0) and built as P_inf + P_0/x; Psi1 = P_0.
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
    n = (3, 2, 1, 0, -1)  # s_(7+i) - s_c of p3_weights(3) at N_j's entries
    Psi1 = mu_graded(C0, n, n, 1)
    Psi = _from_parts(mu_graded(Cinf, n, n), Psi1, "x", ("mu",))
    b, = _from_parts(*(mu_graded([v], (0,), [-e for e in n], k)
                       for k, v in enumerate(coords[:2])), "x", ("mu",))
    # Psi = (1/mu + 1/x) Psi1 + 4 mu Psi2 defines Psi2 = (P_inf - P_0/mu)
    # / (4 mu); at mu = 1 that is (P_inf - P_0) / 4, of weight -1
    Psi2 = [[qdiv(ci - c0, 4) for ci, c0 in zip(ri, r0)]
            for ri, r0 in zip(Cinf, C0)]
    return Psi, Psi1, mu_graded(Psi2, n, n, -1), b


def check_p3(mus=(Fraction(1, 2),)) -> Certificate:
    """Certificate for the Painleve III case, parameters (2mu-1,-2mu+1,1,-1).

    The structural identities run once over Q(mu); the rational-solution
    obstruction runs at each requested rational non-integer mu.  There
    the system F' = Psi F + b scalarizes exactly to Sym^4(L2) y = -g
    with L2 = D^2 - 4 - 4*mu/x and g the displayed right side (checked);
    that one scalar equation is solved once, through the build's
    solve-once table, for the rational_system and scalar_rational claims.
    An integer mu is refused at once, with no search for the witness.
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

    params = ("mu",)
    var = "x"
    cert = Certificate({
        "equation": "Painleve III, parameters (2*mu-1, -2*mu+1, 1, -1)",
        "name": "P3", "variable": "x",
        "mu_values": [str(m) for m in mus],
    })

    ch = build_p3_chain()
    for name in ("A1", "Q1", "At1", "At2", "At3"):
        M = getattr(ch, name)
        if name == "Q1":
            M = _const_to_rat(M, var, params)
        cert.add("matrix", name=name, var=var, params=list(params),
                 rows=_mat_str(M))
    cert.add("trace_zero", matrix=_mat_str(ch.At1), var=var,
             params=list(params))

    # scalar form of the first gauged system is the order-2 operator;
    # At1[1][0] = 4*mu is a nonzero constant, so the covector is e_2
    op1 = cyclic_vector_scalarize(ch.At1).op
    l2 = parse_operator("D^2 - 4 - 4*mu/x", var, params)
    cert.add("operator_identity", a=str(op1), b=str(l2), var=var,
             params=list(params))
    if not (op1 == l2):
        raise RuntimeError("first variational scalar form mismatch")

    # each gauged matrix splits as C_inf + C_0 / x; the chain holds the parts
    for name in ("At1", "At2", "At3"):
        Ci, C0 = ch.parts[name]
        cert.add("decomposition", matrix=_mat_str(getattr(ch, name)),
                 cinf=_mat_str(_const_to_rat(Ci, var, params)),
                 c0=_mat_str(_const_to_rat(C0, var, params)),
                 var=var, params=list(params))

    mu = FieldElem.parameter("mu", params)
    one = RatFun.const(1, var, params)

    # order 2: M1 = C0, M2 = Cinf - (1/mu) C0, M3 = (1/(8 mu)) [M1, M2]
    Ci, C0 = ch.parts["At2"]
    M1 = _const_to_rat(C0, var, params)
    M2 = [[(ci - c0 / mu) * one for ci, c0 in zip(ri, r0)]
          for ri, r0 in zip(Ci, C0)]
    M3 = [[x / (8 * mu) for x in row] for row in mat_bracket(M1, M2)]
    negM1 = [[-x for x in row] for row in M1]
    cert.add("bracket_identity", relation="[M1, M3] = -M1",
             a=_mat_str(M1), b=_mat_str(M3), expect=_mat_str(negM1),
             var=var, params=list(params))
    cert.add("bracket_identity", relation="[M2, M3] = M2",
             a=_mat_str(M2), b=_mat_str(M3), expect=_mat_str(M2),
             var=var, params=list(params))
    if mat_bracket(M1, M3) != negM1 or mat_bracket(M2, M3) != M2:
        raise RuntimeError("order-2 bracket table fails")

    # order 3: the Lie algebra generated by the constants has dimension 8
    Ci, C0 = ch.parts["At3"]
    lie = _lie_claims([Ci, C0])
    cert.add("lie_dimension", var=var, params=list(params),
             generators=[_mat_str(Ci), _mat_str(C0)], **lie,
             classification=None)
    if lie["dimension"] != 8:
        raise RuntimeError("order-3 Lie dimension is %d" % lie["dimension"])

    # off-diagonal reduction data
    Psi, Psi1, Psi2, b = p3_psi_and_b(ch)
    P1 = _const_to_rat(Psi1, var, params)
    P2 = _const_to_rat(Psi2, var, params)
    cert.add("matrix", name="Psi1", var=var, params=list(params),
             rows=_mat_str(P1))
    cert.add("matrix", name="Psi2", var=var, params=list(params),
             rows=_mat_str(P2))
    cert.add("vector", name="b", var=var, params=list(params),
             entries=[str(x) for x in b])
    x = RatFun.gen(var, params)
    cert.add("lincomb_identity",
             relation="Psi = (1/mu + 1/x) Psi1 + 4 mu Psi2",
             terms=[[str((1 / mu) * one + 1 / x), _mat_str(P1)],
                    [str((4 * mu) * one), _mat_str(P2)]],
             expect=_mat_str(Psi), var=var, params=list(params))
    Psi3 = mat_bracket(P1, P2)
    cert.add("bracket_identity", relation="Psi3 = [Psi1, Psi2]",
             a=_mat_str(P1), b=_mat_str(P2), expect=_mat_str(Psi3),
             var=var, params=list(params))

    # pointwise obstruction at each requested mu
    all_ok = True
    solve = _Parsed().solve
    for m in mus:
        sub = {"mu": m}
        l2m = l2.specialize(sub)
        screen = _screen_claims(l2m)
        cert.add("screen", operator=str(l2m), var=var, **screen, mu=str(m))
        if screen["tag"] != TAG_SL2:
            all_ok = False
            continue
        Psim = [[f.specialize(sub) for f in row] for row in Psi]
        bm = [f.specialize(sub) for f in b]
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
