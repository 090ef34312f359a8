"""End-to-end acceptance checks, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Everything here is
exact except criterion 10, which exercises the floating point oracle and
randomized property batches with a fixed seed.
"""

import json
import random
from fractions import Fraction

import pytest

from irred.grammar import parse_ratfun
from irred.jets import EquationFamily, VectorFieldSpec, _from_parts
from irred.liealg import (block_e_matrices, block_xyh, lie_closure)
from irred.linear import mat_bracket, mat_mul
from irred.linops import DiffOp, parse_operator, sym_power_operator
from irred.poly import Poly, RatFun
from irred.ratsolve import rational_solutions
from irred.screen import exponential_solutions_restricted
from irred.verdict import (IRREDUCIBLE, criterion_airy_family, replay)
from irred.field import FieldElem
from oracles import (cinf_c0, gauge_transform, mu_graded, p3_graded_parts,
                     regraded)


L4_TEXT = "D^5 - 20*t*D^3 - 30*D^2 + 64*t^2*D + 64*t"


@pytest.fixture(scope="module")
def p3_document(p3_certificate_text):
    return json.loads(p3_certificate_text)


def test_criterion_01_symmetric_power_operator():
    L4 = sym_power_operator(parse_operator("D^2 - t"), 4)
    assert L4 == parse_operator(L4_TEXT)


def test_criterion_02_block_family_matrix():
    from irred.jets import build_lnve_airy_family
    A = build_lnve_airy_family(3, 12)
    assert [[str(x) for x in row] for row in A] == [
        ["0", "1", "0", "0", "0", "0"],
        ["3*t", "0", "2", "0", "0", "0"],
        ["0", "2*t", "0", "3", "0", "0"],
        ["0", "0", "t", "0", "0", "0"],
        ["0", "0", "0", "0", "0", "1"],
        ["12", "0", "0", "0", "t", "0"],
    ]


def test_criterion_03_lie_closure_dimension_eight():
    X, Y, H = block_xyh(3)
    E = block_e_matrices(3)

    def scaled(M, c):
        return [[c * x for x in row] for row in M]

    zero = scaled(E[0], 0)
    # bracket table of the abelian ideal under the sl2 triplet
    for i in range(5):
        up = E[i + 1] if i + 1 <= 4 else zero
        down = E[i - 1] if i - 1 >= 0 else zero
        assert mat_bracket(X, E[i]) == scaled(up, i + 1)
        assert mat_bracket(Y, E[i]) == scaled(down, 5 - i)
        assert mat_bracket(H, E[i]) == scaled(E[i], 2 * i - 4)
        for j in range(5):
            assert mat_bracket(E[i], E[j]) == zero
    M1 = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(X, E[0])]
    alg = lie_closure([M1, Y])
    assert alg.dimension == 8


def test_criterion_04_no_rational_solution_with_degree_argument():
    L4 = parse_operator(L4_TEXT)
    space = rational_solutions(L4, RatFun.const(12, "t"))
    assert space.particular is None
    assert space.basis == []
    # the certificate carries the degree argument: deg L4(q) = deg q + 1
    cert = criterion_airy_family(EquationFamily(3, "2"))
    recs = cert.find("degree_argument")
    assert recs and recs[0]["sigma"] == 1
    assert parse_operator(recs[0]["operator"]) == L4
    assert cert.verdict == IRREDUCIBLE


def test_criterion_05_p2_verdict(capsys, tmp_path):
    from irred.cli import main
    out = tmp_path / "p2.json"
    assert main(["p2", "--json", str(out)]) == 0
    assert "IRREDUCIBLE" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "IRREDUCIBLE"
    # both routes present: Lie dimension 8 and the empty scalar obstruction
    kinds = [r["kind"] for r in doc["evidence"]]
    assert "lie_dimension" in kinds and "scalar_rational" in kinds
    dim = [r for r in doc["evidence"] if r["kind"] == "lie_dimension"][0]
    assert dim["dimension"] == 8
    sca = [r for r in doc["evidence"] if r["kind"] == "scalar_rational"][0]
    assert sca["solvable"] is False
    assert replay(doc) == len(doc["evidence"])


def test_criterion_06_p3_symbolic_identities(p3_chain):
    """The P3 identities over Q(mu)(x), on the chain's parts at mu = 1
    regraded by the reference."""
    ch = p3_chain
    params = ("mu",)
    mu = FieldElem.parameter("mu", params)
    G = p3_graded_parts(ch)
    At1, At2, At3 = (_from_parts(*G[name], "x", params)
                     for name in ("At1", "At2", "At3"))
    # trace zero at order one
    assert not (At1[0][0] + At1[1][1])
    # each gauged matrix is C_inf + C_0 / x
    for M in (At2, At3):
        Ci, C0 = cinf_c0(M)
        x = RatFun.gen("x", params)
        for i in range(len(M)):
            for j in range(len(M)):
                assert M[i][j] == Ci[i][j] + C0[i][j] / x
    # the order-2 constants match the displayed 5x5 matrices
    Ci, C0 = cinf_c0(At2)
    M1 = C0
    M2 = [[ci - c0 / mu for ci, c0 in zip(ri, r0)] for ri, r0 in zip(Ci, C0)]
    zero, one = mu - mu, mu / mu
    f = FieldElem.from_fraction
    assert M1 == [
        [zero, one, zero, zero, zero],
        [zero, zero, f(2, params), zero, zero],
        [zero, zero, zero, zero, zero],
        [-4 * mu ** 2, 2 * mu, zero, zero, one],
        [zero, 4 * mu ** 2, -2 * mu, zero, zero]]
    assert M2 == [
        [zero, zero, zero, zero, zero],
        [8 * mu, zero, zero, zero, zero],
        [zero, 4 * mu, zero, zero, zero],
        [zero, -one, zero, zero, zero],
        [-12 * mu ** 2, zero, one, 4 * mu, zero]]
    M3 = [[x / (8 * mu) for x in row] for row in mat_bracket(M1, M2)]
    assert mat_bracket(M1, M3) == [[-x for x in row] for row in M1]
    assert mat_bracket(M2, M3) == M2
    # order 3: adjoint matrices and Lie dimension
    from irred.verdict import p3_psi_and_b
    Psi, Psi1, Psi2, b = p3_psi_and_b(ch)
    n = (3, 2, 1, 0, -1)
    Psi, Psi1, Psi2 = (regraded(Psi, n, n), mu_graded(Psi1, n, n, 1),
                       mu_graded(Psi2, n, n, -1))

    def ints(rows):
        return [[f(v, params) for v in row] for row in rows]

    assert Psi1 == ints([[0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [0, -2, 0, 0, 0],
                         [0, 0, -3, 0, 0], [0, 0, 0, -4, 0]])
    assert Psi2 == ints([[0, 4, 0, 0, 0], [0, 0, -3, 0, 0], [0, 0, 0, -2, 0],
                         [0, 0, 0, 0, -1], [0, 0, 0, 0, 0]])
    x = RatFun.gen("x", params)
    onex = RatFun.const(1, "x", params)
    comb = [[((1 / mu) * onex + 1 / x) * (p1 * onex) +
             (4 * mu) * (p2 * onex)
             for p1, p2 in zip(r1, r2)] for r1, r2 in zip(Psi1, Psi2)]
    assert comb == Psi
    Ci3, C03 = cinf_c0(At3)
    assert lie_closure([Ci3, C03]).dimension == 8


def test_criterion_07_p3_verdict(p3_document):
    doc = p3_document
    assert doc["verdict"] == "IRREDUCIBLE"
    bvec = [r for r in doc["graded"]
            if r["kind"] == "vector" and r["name"] == "b"][0]
    assert (bvec["grading"], bvec["shift"]) == ("N", 0)
    # entry i of b stands for mu^(n_i) b_i(x/mu), n = (3, 2, 1, 0, -1)
    b = [parse_ratfun(e, "x") for e in bvec["entries"]]
    expect = ["-32*mu^4/x", "-8*mu^3/x", "(4/3)*mu^2/x", "0", "0"]
    for got, want in zip(regraded([b], (0,), (-3, -2, -1, 0, 1))[0],
                         expect):
        assert got == parse_ratfun(want, "x", ("mu",))
    sysrec = [r for r in doc["evidence"] if r["kind"] == "rational_system"][0]
    assert sysrec["solvable"] is False
    scarec = [r for r in doc["evidence"] if r["kind"] == "scalar_rational"][0]
    assert scarec["solvable"] is False
    assert parse_operator(scarec["operator"], "x") == \
        sym_power_operator(parse_operator("D^2 - 4 - 2/x", "x"), 4)
    assert replay(doc) == len(doc["evidence"])


def test_criterion_08_exponential_witness_family_law():
    def l2(mu):
        return parse_operator("D^2 - 4 - %s/x" % (4 * Fraction(mu)), "x")

    for mu in (1, -1, 2, -2, 3, -3):
        wits = exponential_solutions_restricted(l2(mu))
        assert wits, "expected a witness at mu=%s" % mu
        for w in wits:
            assert abs(w.lam) == 2
            assert w.poly.degree() + sum(w.rho.values()) == abs(mu)
    for mu in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 2)):
        assert exponential_solutions_restricted(l2(mu)) == []


def test_criterion_09_pole_order_shortcut():
    for p in ("1/x", "1/x^2", "1/x^4"):
        cert = criterion_airy_family(EquationFamily(2, p))
        assert cert.verdict == IRREDUCIBLE
        rec = cert.find("pole_shortcut")[0]
        assert rec["applies"] is True
        assert not cert.find("scalar_rational")  # solver skipped
    # order n+3 = 5: shortcut declines, the full solver runs
    cert = criterion_airy_family(EquationFamily(2, "1/x^5"))
    rec = cert.find("pole_shortcut")[0]
    assert rec["applies"] is False
    assert cert.find("scalar_rational")
    assert cert.verdict == IRREDUCIBLE


def test_criterion_10_property_suite():
    rng = random.Random(20250825)

    # (a) numeric oracle on the second showcase field up to third jets
    from irred.oracle import numeric_ve_oracle
    X = VectorFieldSpec(("x", "y", "z"), ["1", "z", "x*y + 2*y^3"],
                        indep="x")
    for k in (1, 2, 3):
        assert numeric_ve_oracle(X, {"y": "0", "z": "0"}, k) < 1e-4

    # (b) planted-solution recovery, 100 instances of order <= 3
    t = RatFun.gen("t")
    from irred.linear import solve_all

    def rand_poly(deg):
        return Poly([Fraction(rng.randint(-2, 2)) for _ in range(deg + 1)],
                    "t")

    recovered = 0
    for trial in range(100):
        # monic operators: random leading coefficients occasionally give
        # enormous local exponent bounds, which is a stress test of the
        # solver, not of planted-solution recovery
        order = rng.randint(1, 3)
        coeffs = [RatFun(rand_poly(rng.randint(0, 1)))
                  for _ in range(order)]
        L = DiffOp(coeffs + [RatFun.const(1, "t")], "t")
        num = rand_poly(rng.randint(0, 2))
        dp = [rng.randint(0, 1), rng.randint(0, 1)]
        den = (Poly.gen("t") ** dp[0]) * ((Poly.gen("t") - 1) ** dp[1])
        y0 = RatFun(num, den)
        g = L.apply(y0)
        space = rational_solutions(L, g)
        assert space.particular is not None
        # y0 itself must lie in the affine solution space
        d = y0 - space.particular
        assert not L.apply(d)
        if not d:
            recovered += 1
            continue
        vecs = space.basis
        common = Poly.const(1, "t")
        for fct in vecs + [d]:
            gg = common.gcd(fct.den)
            common = common * (fct.den // gg)
        ps = [(fr * RatFun(common)).as_poly() for fr in vecs + [d]]
        size = max(p.degree() for p in ps if not p.is_zero()) + 1
        cols = [[p.coeff(i) for i in range(size)] for p in ps[:-1]]
        rhs = [ps[-1].coeff(i) for i in range(size)]
        m = [[cols[j][r] for j in range(len(cols))] for r in range(size)]
        sol = solve_all(m, [rhs], Fraction(1))[0][0]
        assert sol is not None, "planted solution outside the returned space"
        recovered += 1
    assert recovered == 100

    # (c) gauge cocycle on random unipotent gauges
    one = RatFun.const(1, "t")
    zero = RatFun.zero("t")
    A = [[zero, one], [t, zero]]
    for _ in range(10):
        P = [[one, RatFun(rand_poly(1))], [zero, one]]
        Q = [[one, zero], [RatFun(rand_poly(1)), one]]
        assert gauge_transform(P, gauge_transform(Q, A)) == \
            gauge_transform(mat_mul(P, Q), A)

    # (d) Jacobi identity on random constant matrices
    for _ in range(20):
        def rmat():
            return [[Fraction(rng.randint(-4, 4))
                     for _ in range(3)] for _ in range(3)]

        Ax, B, C = rmat(), rmat(), rmat()
        J1 = mat_bracket(mat_bracket(Ax, B), C)
        J2 = mat_bracket(mat_bracket(B, C), Ax)
        J3 = mat_bracket(mat_bracket(C, Ax), B)
        total = [[a + b + c for a, b, c in zip(r1, r2, r3)]
                 for r1, r2, r3 in zip(J1, J2, J3)]
        assert all(not x for row in total for x in row)
