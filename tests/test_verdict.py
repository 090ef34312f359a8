"""Certificates: construction, replay, tampering, family verdicts."""

import json

import pytest

from irred.grammar import parse_ratfun
from irred.jets import EquationFamily
from irred.linops import parse_operator, sym_power_operator
from irred.poly import Poly, RatFun
from irred.verdict import (Certificate, CertificateError, INCONCLUSIVE,
                           IRREDUCIBLE, check_p3, criterion_airy_family,
                           lnve_group_dimension, reduced_form_obstruction,
                           replay)


def test_family_shortcut_pole():
    cert = criterion_airy_family(EquationFamily(2, "1/x"))
    assert cert.verdict == IRREDUCIBLE
    recs = cert.find("pole_shortcut")
    assert recs and recs[0]["applies"]


def test_family_full_route():
    cert = criterion_airy_family(EquationFamily(3, "2"))
    assert cert.verdict == IRREDUCIBLE
    assert cert.find("degree_argument")
    assert cert.find("scalar_rational")
    assert cert.find("rational_system")


def test_family_zero_p_inconclusive():
    cert = criterion_airy_family(EquationFamily(3, "y"))
    assert cert.verdict == INCONCLUSIVE


def test_family_solvable_obstruction_inconclusive():
    # plant a rational solution: p = L4(t) = 128 t^2, so P(x,0) = 64 x^2 / 3
    L4 = sym_power_operator(parse_operator("D^2 - t"), 4)
    t = RatFun.gen("t")
    p = L4.apply(t)
    assert p == 128 * t ** 2
    cert = criterion_airy_family(EquationFamily(3, "64*x^2/3"))
    assert cert.verdict == INCONCLUSIVE
    assert cert.find("matrix")  # the reduction gauge is recorded


def test_lnve_group_dimension():
    t = RatFun.gen("t")
    assert lnve_group_dimension(3, RatFun.const(12, "t")) == \
        (8, "sl2 x Sym^(n+1)")
    assert lnve_group_dimension(2, RatFun.zero("t")) == (3, "sl2")
    assert lnve_group_dimension(4, t)[0] == 9


def test_reduced_form_obstruction_gauge():
    from oracles import gauge_transform
    t = RatFun.gen("t")
    L4 = sym_power_operator(parse_operator("D^2 - t"), 4)
    p = L4.apply(t)
    Psi, b, space = reduced_form_obstruction(3, p)
    assert space.particular is not None
    assert space.reduction is not None
    # the gauge really removes the coupling entry
    from irred.jets import build_lnve_airy_family
    A = build_lnve_airy_family(3, p)
    B = gauge_transform(space.reduction, A)
    assert not B[5][0]


def _perturbed_family_psi(monkeypatch):
    import irred.verdict as verdict
    psi = verdict._family_psi

    def perturbed(n):
        Psi = psi(n)
        Psi[0][0] = Psi[0][0] + 1
        return Psi

    monkeypatch.setattr(verdict, "_family_psi", perturbed)


@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_family_identity_test_fails_on_a_perturbed_matrix(monkeypatch, n):
    """The build takes Sym^(n+1)(D^2 - t) y = (-1)^(n+1) (n+1)! p as the
    scalar form of the family system with no runtime check; the Tier-1
    identity test is that check, and a perturbed Psi(n) fails it."""
    from test_linops import assert_family_scalarizes_to_the_symmetric_power
    _perturbed_family_psi(monkeypatch)
    with pytest.raises(AssertionError):
        assert_family_scalarizes_to_the_symmetric_power(n)


def test_family_build_rejects_a_perturbed_matrix_at_resubstitution(
        monkeypatch):
    """n = 3, P = x is solvable (y = 3/32); its closed-form lift does not
    solve a perturbed Psi(n), and the re-substitution stops the build."""
    _perturbed_family_psi(monkeypatch)
    with pytest.raises(RuntimeError, match="fails re-substitution"):
        criterion_airy_family(EquationFamily(3, "x"))


def _planted_family_p(n, y):
    """p with Sym^(n+1)(D^2 - t) y = (-1)^(n+1) (n+1)! p."""
    import math
    L = sym_power_operator(parse_operator("D^2 - t"), n + 1)
    return L.apply(y) / ((-1) ** (n + 1) * math.factorial(n + 1))


_LIFT_CASES = [(n, y) for n in range(2, 9) for y in (
    "t^2 + 1", "3/7", "t^5 - 2*t + 1/3", "t + 1/(t-1)^2", "1/(t^2 + 1)",
    "(t^3 - 2)/(3*t - 1)^3")] + [(32, "t^3 - 2*t")]


@pytest.mark.parametrize("n,y", _LIFT_CASES)
def test_closed_form_lift_matches_the_krylov_lift(n, y):
    """On planted solvable inputs the closed-form lift of the scalar
    solution, and the particular vector of reduced_form_obstruction, are
    the Krylov back-substitution of the same scalar solution."""
    from oracles import family_scalar_form
    from irred.linops import sym_power_chain
    from irred.verdict import _family_lift
    y = parse_ratfun(y, "t")
    p = _planted_family_p(n, y)
    krylov = family_scalar_form(n, p).back_substitute(y)
    chain = sym_power_chain(parse_operator("D^2 - t"), n + 1)
    assert _family_lift(chain, y) == krylov
    _, _, space = reduced_form_obstruction(n, p)
    assert space.particular == krylov and space.basis == []


def test_certificate_roundtrip_and_replay():
    cert = criterion_airy_family(EquationFamily(2, "1/x"))
    text = cert.to_json()
    n = replay(text)
    assert n == len(cert.evidence)


def test_certificate_key_order_stable():
    cert = criterion_airy_family(EquationFamily(2, "1/x"))
    d1 = json.loads(cert.to_json())
    d2 = json.loads(Certificate.from_json(cert.to_json()).to_json())
    assert d1 == d2
    assert list(d1.keys()) == ["input", "evidence", "verdict"]


def test_certificate_tamper_detected():
    cert = criterion_airy_family(EquationFamily(2, "1/x"))
    d = cert.to_dict()
    d = json.loads(json.dumps(d))
    for rec in d["evidence"]:
        if rec["kind"] == "pole_shortcut":
            rec["applies"] = not rec["applies"]
    with pytest.raises(CertificateError):
        replay(d)


@pytest.mark.parametrize("text", [
    "{}",
    "[]",
    '{"input": {}, "evidence": 5, "verdict": null}',
    '{"input": {}, "evidence": [1], "verdict": null}',
    "not json",
])
def test_malformed_certificate_raises_certificate_error(text):
    with pytest.raises(CertificateError):
        replay(text)


def test_p3_rejects_mu_zero():
    # the gauge Q1 degenerates at mu = 0
    with pytest.raises(ValueError, match="Q1 singular"):
        check_p3([0])


def _count_solves(monkeypatch):
    """Record (operator, rhs) of every rational_solutions call, through
    both the ratsolve and the verdict bindings."""
    import irred.ratsolve as ratsolve
    import irred.verdict as verdict
    calls = []
    solve = ratsolve.rational_solutions

    def counting(L, g=None):
        calls.append((str(L), str(g)))
        return solve(L, g)

    for module in (ratsolve, verdict):
        monkeypatch.setattr(module, "rational_solutions", counting)
    return calls


def _count_degree_bounds(monkeypatch):
    """Record the operator of every degree_bound call."""
    import irred.ratsolve as ratsolve
    import irred.verdict as verdict
    calls = []
    bound = ratsolve.degree_bound

    def counting(L, g=None):
        calls.append(str(L))
        return bound(L, g)

    for module in (ratsolve, verdict):
        monkeypatch.setattr(module, "degree_bound", counting)
    return calls


def test_check_p3_eliminates_each_shared_matrix_once(rref_calls,
                                                     monkeypatch):
    """The C_inf and C_0 parts of the chain share the rows S of the
    invariant subspace, and both parts' N-coordinates and brackets share
    the 81x5 N basis: one elimination each.  The Krylov matrices of the
    two scalarizations are triangular and need none; the last one is
    the polynomial solve of the one scalar equation."""
    from fractions import Fraction
    solves = _count_solves(monkeypatch)
    check_p3([Fraction(1, 2)])
    assert rref_calls == [10, 81, 5]
    assert len(solves) == 1


def test_p3_identity_guard_rejects_a_perturbed_rhs(monkeypatch):
    """check_p3 reads both records off one solve of Sym^4(L2) y = g only
    after checking that the system scalarizes to Sym^4(L2) y = -g."""
    from fractions import Fraction
    import irred.verdict as verdict
    from irred.linops import ScalarizeResult
    scalarize = verdict.cyclic_vector_scalarize

    def perturbed(A, b=None):
        res = scalarize(A, b)
        if A[0][0].params:
            return res
        return ScalarizeResult(res.op, -res.rhs, res.back_substitute)

    monkeypatch.setattr(verdict, "cyclic_vector_scalarize", perturbed)
    with pytest.raises(RuntimeError, match="does not scalarize"):
        check_p3([Fraction(1, 2)])


def test_p3_without_mu_gives_no_verdict(monkeypatch):
    # with no mu there is no screen and no obstruction record, so there
    # is nothing a verdict could rest on; the chain is never built
    import irred.verdict
    monkeypatch.setattr(irred.verdict, "build_p3_chain", None)
    for mus in ([], ()):
        with pytest.raises(ValueError, match="at least one mu"):
            check_p3(mus)


def test_certificate_recheck_detects_wrong_claim():
    # consistent hash but a false claim: replay re-runs the check
    cert = criterion_airy_family(EquationFamily(3, "2"))
    d = json.loads(cert.to_json())
    for rec in d["evidence"]:
        if rec["kind"] == "scalar_rational":
            rec.pop("hash")
            rec["solvable"] = True
            from irred.verdict import _record_hash
            rec["hash"] = _record_hash(rec)
    with pytest.raises(CertificateError):
        replay(d)


def test_check_p2_solves_the_obstruction_system_once(monkeypatch):
    import irred.ratsolve as ratsolve
    import irred.verdict as verdict
    calls = []
    solve = ratsolve.system_rational_solutions

    def counting(A, b=None):
        calls.append(len(A))
        return solve(A, b)

    for module in (ratsolve, verdict):
        monkeypatch.setattr(module, "system_rational_solutions", counting,
                            raising=False)
    solves = _count_solves(monkeypatch)
    cert = verdict.check_p2()
    assert cert.verdict == IRREDUCIBLE
    # the build lifts the family's one scalar solve to the system
    assert calls == [] and len(solves) == 1
    # both routes record the one system
    first, second = cert.find("rational_system")
    assert first == second and not first["solvable"]
    # replay checks both hashes, solves the repeated record once and
    # lifts the scalar equation it shares with scalar_rational
    solves.clear()
    assert replay(cert) == len(cert.evidence)
    assert calls == [] and len(solves) == 1


def test_family_system_replay_splits_no_denominators(monkeypatch):
    """The family system scalarizes with the covector e_last to a monic
    operator with polynomial coefficients, so the denominator bound of
    its replay has no singular factor to split."""
    import irred.ratsolve as ratsolve
    calls = []
    split = ratsolve.coprime_basis

    def counting(polys):
        calls.append(len(polys))
        return split(polys)

    monkeypatch.setattr(ratsolve, "coprime_basis", counting)
    cert = criterion_airy_family(EquationFamily(4, "x^2"))
    calls.clear()
    d = json.loads(cert.to_json())
    d["evidence"] = [r for r in d["evidence"] if r["kind"] == "rational_system"]
    assert replay(d) == 1
    assert calls == []


def test_family_bounds_each_solved_degree_once(monkeypatch):
    """The degree_argument record takes the bound that rational_solutions
    computed for L y = p (its denominator bound is 1), and the system
    route lifts that one solve, so a full family build bounds the degree
    once."""
    from irred.ratsolve import degree_bound
    calls = _count_degree_bounds(monkeypatch)
    cert = criterion_airy_family(EquationFamily(4, "x^2"))
    assert len(calls) == 1
    rec, = cert.find("degree_argument")
    assert rec["degree_bound"] == degree_bound(
        parse_operator(rec["operator"]), parse_ratfun(rec["rhs"]))
    assert replay(cert) == len(cert.evidence)


def test_q_workloads_build_no_field_elem_over_q(monkeypatch):
    """Q is represented by Fractions: check_p2 and family n=4 P=x^2 build
    and replay without any attempt at a FieldElem with no parameter."""
    from irred.field import FieldElem
    from irred.verdict import check_p2
    contexts = []
    init = FieldElem.__init__

    def recording(self, params, *args, **kwargs):
        contexts.append(tuple(params))
        init(self, params, *args, **kwargs)

    monkeypatch.setattr(FieldElem, "__init__", recording)
    for cert in (check_p2(), criterion_airy_family(EquationFamily(4, "x^2"))):
        assert replay(cert) == len(cert.evidence)
    assert () not in contexts
    FieldElem.parameter("mu", ("mu",))
    assert contexts[-1] == ("mu",)


def test_p3_display_at_rational_mu_is_the_specialized_display():
    from fractions import Fraction
    from irred.grammar import parse_ratfun
    from irred.verdict import _p3_g_display
    symbolic = parse_ratfun(
        "8192*mu^4/x + 5120*(4*mu + 1)*mu^4/x^2"
        " + 512*(24*mu^2 + 16*mu - 7)*mu^4/x^3"
        " - 256*(31*mu + 3)*mu^4/x^4 + 768*mu^4/x^5", "x", ("mu",))
    for m in (Fraction(1, 2), Fraction(-3, 2), Fraction(7, 3)):
        want = symbolic.specialize({"mu": m})
        got = _p3_g_display(m)
        assert got == want and str(got) == str(want)
        assert got.params == ()


def _closure_rejecting_field_elems(monkeypatch):
    """Make lie_closure raise on Q(mu) entries; returns the entry types
    of each call."""
    import irred.liealg as liealg
    from irred.field import FieldElem
    calls = []
    real = liealg.lie_closure

    def rational_only(gens, limit=None):
        types = {type(x) for G in gens for row in G for x in row}
        calls.append(types)
        if FieldElem in types:
            raise AssertionError("lie_closure over Q(mu)")
        return real(gens, limit)

    monkeypatch.setattr(liealg, "lie_closure", rational_only)
    return calls


def test_p3_lie_dimension_takes_the_graded_route(monkeypatch):
    """check_p3 and its replay find the order-3 dimension 8 without a
    closure over Q(mu)."""
    from fractions import Fraction
    calls = _closure_rejecting_field_elems(monkeypatch)
    cert = check_p3([Fraction(1, 2)])
    rec, = cert.find("lie_dimension")
    assert rec["dimension"] == 8
    assert replay(cert.to_json()) == len(cert.evidence)
    assert len(calls) == 2


def _p3_lie_record(p3_certificate_text):
    doc = json.loads(p3_certificate_text)
    rec, = [r for r in doc["evidence"] if r["kind"] == "lie_dimension"]
    return doc, rec


def test_p3_lie_dimension_claim_of_nine_fails(p3_certificate_text):
    from irred.verdict import _record_hash
    doc, rec = _p3_lie_record(p3_certificate_text)
    rec["dimension"] = 9
    rec["hash"] = _record_hash(rec)
    with pytest.raises(CertificateError,
                       match="lie_dimension.dimension changed: 8 vs 9"):
        replay(doc)


def _crafted_lie_record(p3_certificate_text, size, dimension):
    """The p3 certificate with its lie_dimension record replaced by two
    random small-integer size x size generators and the given claimed
    dimension, re-hashed."""
    import random
    from irred.verdict import _record_hash
    doc, rec = _p3_lie_record(p3_certificate_text)
    rng = random.Random(size)
    rec["generators"] = [[[str(rng.randint(-3, 3)) for _ in range(size)]
                          for _ in range(size)] for _ in range(2)]
    rec["dimension"] = dimension
    rec["hash"] = _record_hash(rec)
    return doc


@pytest.mark.parametrize("size,dimension,match", [
    (10, 8, "at most 9 x 9"),
    (9, 81, "not an integer from 0 to 16"),
    (9, 16, "passes dimension 16"),
    (9, 8, "passes dimension 8"),
], ids=["10x10", "9x9 claims 81", "9x9 claims 16", "9x9 claims 8"])
def test_crafted_lie_record_fails_fast(p3_certificate_text, size, dimension,
                                       match):
    """A well-hashed lie_dimension record with random generators and a
    false dimension is refused, or its closure stopped past the claim,
    in well under 2 s of CPU: left to run, the 10 x 10 closure takes
    minutes."""
    import time
    doc = _crafted_lie_record(p3_certificate_text, size, dimension)
    start = time.process_time()
    with pytest.raises(CertificateError, match=match):
        replay(doc)
    assert time.process_time() - start < 2


@pytest.mark.parametrize("k,i,j,entry,dim", [
    (1, 7, 1, "4/3*mu^3 + 4/3*mu^2", 8),
    (0, 7, 5, "mu + 1", 13),
], ids=["same-span", "larger-span"])
def test_p3_ungraded_generator_replays_through_lie_closure(
        p3_certificate_text, monkeypatch, k, i, j, entry, dim):
    """An edited entry that is no monomial in mu sends replay to
    lie_closure over Q(mu), which it must call with the record's 8 as its
    limit: a span of the claimed dimension replays, and a larger one
    stops as soon as it passes 8."""
    import irred.liealg as liealg
    from irred.field import FieldElem
    from irred.verdict import _record_hash
    doc, rec = _p3_lie_record(p3_certificate_text)
    rec["generators"][k][i][j] = entry
    rec["hash"] = _record_hash(rec)
    calls = []
    real = liealg.lie_closure

    def spying(gens, limit=None):
        if any(isinstance(x, FieldElem) for G in gens for row in G
               for x in row):
            calls.append((limit, real(gens).dimension))
        return real(gens, limit)

    monkeypatch.setattr(liealg, "lie_closure", spying)
    if dim == 8:
        assert replay(doc) == len(doc["evidence"])
    else:
        with pytest.raises(CertificateError,
                           match="passes dimension 8"):
            replay(doc)
    assert calls == [(8, dim)]


def _p3_decomposition(doc, name):
    """The decomposition record of the gauged matrix `name` in doc."""
    rows, = [r["rows"] for r in doc["evidence"]
             if r["kind"] == "matrix" and r["name"] == name]
    rec, = [r for r in doc["evidence"]
            if r["kind"] == "decomposition" and r["matrix"] == rows]
    return rec


def test_p3_decomposition_parts_must_be_constants(p3_certificate_text):
    """cinf := matrix, c0 := 0 satisfies matrix = cinf + c0/x, but its
    cinf is not constant: replay refuses it."""
    from irred.verdict import _record_hash
    doc = json.loads(p3_certificate_text)
    assert replay(doc) == len(doc["evidence"])
    rec = _p3_decomposition(doc, "At2")
    rec["cinf"] = rec["matrix"]
    rec["c0"] = [["0"] * len(row) for row in rec["matrix"]]
    rec["hash"] = _record_hash(rec)
    with pytest.raises(CertificateError, match="expected constant entry"):
        replay(doc)


@pytest.mark.parametrize("edit, match", [
    (lambda rec: rec.update(c0=[row[:-1] for row in rec["c0"]]),
     "differ in shape"),
    (lambda rec: rec.update(cinf=rec["c0"]), "not cinf \\+ c0/x"),
], ids=["shape", "sum"])
def test_p3_decomposition_parts_must_sum_to_the_matrix(
        p3_certificate_text, edit, match):
    from irred.verdict import _record_hash
    doc = json.loads(p3_certificate_text)
    rec = _p3_decomposition(doc, "At1")
    edit(rec)
    rec["hash"] = _record_hash(rec)
    with pytest.raises(CertificateError, match=match):
        replay(doc)


def _identity_records(doc):
    """(kind, record, field holding its expected side) of every identity
    record in doc."""
    return [(r["kind"], r, "matrix" if r["kind"] == "decomposition"
             else "expect") for r in doc["evidence"]
            if r["kind"] in ("decomposition", "bracket_identity",
                             "lincomb_identity")]


def _respelled(text):
    """The value of text, spelled otherwise."""
    return "2*mu*2" if text == "4*mu" else "(%s)*2/2" % text


@pytest.mark.parametrize("edit", ["wrong", "respelled"])
def test_identity_expected_side_is_compared_as_canonical_text(
        p3_certificate_text, edit):
    """Replay derives the expected side of each identity record and
    compares its printed form: a re-hashed record with a wrong value, or
    with the right value spelled otherwise, fails."""
    from irred.verdict import _record_hash
    records = _identity_records(json.loads(p3_certificate_text))
    assert sorted({k for k, _, _ in records}) == [
        "bracket_identity", "decomposition", "lincomb_identity"]
    for i in range(len(records)):
        doc = json.loads(p3_certificate_text)
        kind, rec, field = _identity_records(doc)[i]
        row = next(r for r in rec[field] if any(e != "0" for e in r))
        j = next(j for j, e in enumerate(row) if e != "0")
        value = parse_ratfun(row[j], "x", ("mu",))
        if edit == "wrong":
            row[j] = str(value + 1)
        else:
            row[j] = _respelled(row[j])
            assert parse_ratfun(row[j], "x", ("mu",)) == value
        rec["hash"] = _record_hash(rec)
        with pytest.raises(CertificateError, match="cinf \\+ c0/x|fails"):
            replay(doc)


def _p3_record(doc, relation):
    return next(r for r in doc["evidence"] if r.get("relation") == relation)


def _widened(rows):
    """rows with a junk column and a junk row."""
    return [row + ["7"] for row in rows] + [["7"] * (len(rows[0]) + 1)]


_LINCOMB = "Psi = (1/mu + 1/x) Psi1 + 4 mu Psi2"


@pytest.mark.parametrize("relation, paths, edit", [
    # the second lincomb term widened, and the first one made ragged
    (_LINCOMB, [("terms", 1, 1)], _widened),
    (_LINCOMB, [("terms", 0, 1)],
     lambda rows: rows[:2] + [rows[2][:-1]] + rows[3:]),
    # b of a bracket widened, and a and b both made 5 x 6
    ("[M2, M3] = M2", [("b",)], _widened),
    ("[M2, M3] = M2", [("a",), ("b",)],
     lambda rows: [row + ["0"] for row in rows]),
], ids=["wide-term", "ragged-term", "wide-b", "non-square"])
def test_identity_terms_of_other_shapes_fail(p3_certificate_text, relation,
                                             paths, edit):
    """zip would truncate a wider or ragged term, so each must be
    refused on its shape before any product: every term, and a and b
    of a bracket, are rectangular and of one shape (square for a
    bracket)."""
    from irred.verdict import _record_hash
    doc = json.loads(p3_certificate_text)
    rec = _p3_record(doc, relation)
    for *outer, last in paths:
        holder = rec
        for key in outer:
            holder = holder[key]
        holder[last] = edit(holder[last])
    rec["hash"] = _record_hash(rec)
    with pytest.raises(CertificateError, match="ragged or differ in shape"):
        replay(doc)


def test_bracket_identity_inputs_must_be_constants(p3_certificate_text):
    """The bracket is taken over Q(mu): an entry of a that depends on x
    is refused before any bracket is formed."""
    from irred.verdict import _record_hash
    doc = json.loads(p3_certificate_text)
    rec = _p3_record(doc, "[M2, M3] = M2")
    rec["a"][0][0] = "x"
    rec["hash"] = _record_hash(rec)
    with pytest.raises(CertificateError, match="expected constant entry"):
        replay(doc)


def test_replay_parses_no_expected_side(p3_certificate_text, monkeypatch):
    """Replay of the p3 certificate parses only the inputs of its
    records: no string that only a decomposition matrix or an identity's
    expect holds is ever parsed."""
    import irred.verdict as verdict
    parsed = set()
    real = verdict.parse_ratfun

    def spying(text, var, params):
        parsed.add(text)
        return real(text, var, params)

    monkeypatch.setattr(verdict, "parse_ratfun", spying)
    doc = json.loads(p3_certificate_text)
    assert replay(doc) == len(doc["evidence"])

    def leaves(x):
        if isinstance(x, str):
            return {x}
        if isinstance(x, list):
            return set().union(*map(leaves, x))
        return set()

    expected = set().union(*(leaves(rec[f])
                             for _, rec, f in _identity_records(doc)))
    inputs = set().union(*(
        leaves(v) for rec in doc["evidence"]
        if rec["kind"] not in ("matrix", "vector", "operator", "note")
        for k, v in rec.items()
        if k not in ("matrix", "expect") or rec["kind"] in (
            "trace_zero", "rational_system")))
    assert expected - inputs
    assert parsed <= inputs
    assert not parsed & (expected - inputs)


def test_replay_parses_each_distinct_string_once(p3_certificate_text,
                                                 monkeypatch):
    """Within one replay call each (text, var, params) is parsed once;
    a second call parses again, so no certificate seeds another."""
    from collections import Counter
    import irred.verdict as verdict
    seen = {"parse_ratfun": [], "parse_operator": []}
    for name, log in seen.items():
        real = getattr(verdict, name)

        def spying(text, var, params, real=real, log=log):
            log.append((text, var, params))
            return real(text, var, params)

        monkeypatch.setattr(verdict, name, spying)
    replay(p3_certificate_text)
    first = {k: Counter(v) for k, v in seen.items()}
    assert all(first.values())
    for counts in first.values():
        assert set(counts.values()) == {1}
    replay(p3_certificate_text)
    for name, log in seen.items():
        assert Counter(log) == Counter({k: 2 for k in first[name]})


@pytest.mark.parametrize("name, equations", [
    ("family", 1), ("family-solvable", 1), ("p2", 1), ("p3-two-mu", 2)])
def test_replay_solves_each_distinct_equation_once(monkeypatch, name,
                                                   equations):
    """The degree_argument, scalar_rational and rational_system records
    of one obstruction share one scalar solve; a full-path family replay
    also bounds the degree once, inside that solve."""
    from fractions import Fraction
    from irred.verdict import check_p2
    cert = {"family": lambda: criterion_airy_family(EquationFamily(8, "x")),
            "family-solvable": lambda: criterion_airy_family(
                EquationFamily(3, "64*x^2/3")),
            "p2": check_p2,
            "p3-two-mu": lambda: check_p3([Fraction(1, 2), Fraction(-7, 3)]),
            }[name]()
    solves = _count_solves(monkeypatch)
    bounds = _count_degree_bounds(monkeypatch)
    assert replay(cert.to_json()) == len(cert.evidence)
    assert len(solves) == equations
    if cert.find("degree_argument"):
        assert len(bounds) == equations


def _same_space(a, b):
    return (a.particular == b.particular and a.basis == b.basis
            and a.denominator == b.denominator and a.degree == b.degree)


@pytest.mark.parametrize("op, rhs, var", [
    ("Sym4", "t", "t"),
    ("Sym4", "128*t^2", "t"),
    ("D^2 + 2/t*D", "2/t^4 + 2", "t"),
    ("P3", "P3", "x"),
], ids=["unsolvable", "planted", "pole", "p3-half"])
@pytest.mark.parametrize("c", [-1, 24])
def test_solve_table_scales_an_earlier_space(monkeypatch, op, rhs, var, c):
    """For L y = c g after L y = g the table scales the earlier space
    and solves nothing; the result is what a fresh solve returns (c = -1
    as in P3, c = (-1)^(n+1) (n+1)! = 24 as in the family at n = 3)."""
    from fractions import Fraction
    from irred.ratsolve import rational_solutions
    from irred.verdict import _Parsed, _p3_g_display
    if op == "Sym4":
        L = sym_power_operator(parse_operator("D^2 - t"), 4)
    elif op == "P3":
        L = sym_power_operator(parse_operator("D^2 - 4 - 2/x", "x"), 4)
    else:
        L = parse_operator(op, var)
    g = (_p3_g_display(Fraction(1, 2)) if rhs == "P3"
         else parse_ratfun(rhs, var))
    fresh = rational_solutions(L, c * g)
    if rhs != "t":
        assert (fresh.particular is None) == (op == "P3")
    parsed = _Parsed()
    first = parsed.solve(L, g)
    solves = _count_solves(monkeypatch)
    got = parsed.solve(L, c * g)
    assert solves == []
    assert _same_space(got, fresh)
    assert _same_space(parsed.solve(L, g), first)
    # another right side, another operator, or the same coefficients in
    # another variable are solved afresh
    parsed.solve(L, g + 1)
    parsed.solve(L + 1, g)
    parsed.solve(parse_operator(str(L).replace(var, "s"), "s"),
                 parse_ratfun(str(g).replace(var, "s"), "s"))
    assert len(solves) == 3 and solves[-1][0] == str(L).replace(var, "s")


def test_replay_keeps_no_solve_between_calls(monkeypatch):
    cert = criterion_airy_family(EquationFamily(3, "2")).to_json()
    solves = _count_solves(monkeypatch)
    replay(cert)
    replay(cert)
    assert len(solves) == 2 and solves[0] == solves[1]


@pytest.mark.parametrize("kind", ["rational_system", "scalar_rational"])
def test_flipped_solvability_fails_beside_its_partner(kind):
    """A re-hashed record of one obstruction with solvable flipped fails
    replay also when its partner record, which shares the solve, is in
    the same certificate."""
    from irred.verdict import _record_hash
    d = json.loads(criterion_airy_family(EquationFamily(8, "x")).to_json())
    assert {"rational_system", "scalar_rational"} <= {
        r["kind"] for r in d["evidence"]}
    rec, = [r for r in d["evidence"] if r["kind"] == kind]
    rec["solvable"] = not rec["solvable"]
    rec["hash"] = _record_hash(rec)
    with pytest.raises(CertificateError, match="solvable changed"):
        replay(d)


def test_rational_solutions_with_denominator_bound_one_composes_nothing(
        monkeypatch):
    """With denominator bound 1 the solver works on L itself: no
    operator is built for the substitution y = z / D."""
    import irred.ratsolve as ratsolve
    L = sym_power_operator(parse_operator("D^2 - t"), 4)
    t = RatFun.gen("t")
    monkeypatch.setattr(ratsolve, "DiffOp", None)
    space = ratsolve.rational_solutions(L, L.apply(t))
    assert space.denominator == 1 and space.particular == t


def _crafted_system_record(rows, cols, rhs, params=()):
    """The family n = 3, P = 2 certificate with its rational_system
    record given a rows x cols zero matrix, a zero rhs of length rhs and
    the given parameters, re-hashed."""
    from irred.verdict import _record_hash
    d = json.loads(criterion_airy_family(EquationFamily(3, "2")).to_json())
    rec, = [r for r in d["evidence"] if r["kind"] == "rational_system"]
    rec["matrix"] = [["0"] * cols for _ in range(rows)]
    rec["rhs"] = ["0"] * rhs
    if params:
        rec["params"] = list(params)
    rec["hash"] = _record_hash(rec)
    return d


def test_zero_matrix_system_record_fails_fast():
    """e_1 is not cyclic for a zero matrix; replay refuses the
    re-hashed 10 x 10 record after one Krylov row, in well under 1 s of
    CPU (drawing retry covectors once took about 38 s)."""
    import time
    d = _crafted_system_record(10, 10, 10)
    start = time.process_time()
    with pytest.raises(CertificateError, match="unsupported system"):
        replay(d)
    assert time.process_time() - start < 1


@pytest.mark.parametrize("rows,cols,rhs,params,refused", [
    (35, 35, 35, (), True), (3, 4, 3, (), True), (4, 4, 3, (), True),
    (4, 4, 4, ("mu",), True), (34, 34, 34, (), False),
], ids=["35x35", "not square", "short rhs", "over Q(mu)", "34x34"])
def test_system_record_size_is_checked_before_scalarizing(
        monkeypatch, rows, cols, rhs, params, refused):
    """A rational_system matrix that is not square, is larger than
    34 x 34 (Psi(32)), has parameters, or whose rhs does not match, is
    refused before cyclic_vector_scalarize runs."""
    import irred.verdict as verdict
    calls = []
    scalarize = verdict.cyclic_vector_scalarize

    def counting(A, b=None):
        calls.append(len(A))
        return scalarize(A, b)

    d = _crafted_system_record(rows, cols, rhs, params)
    monkeypatch.setattr(verdict, "cyclic_vector_scalarize", counting)
    match = "at most 34 x 34" if refused else "unsupported system"
    with pytest.raises(CertificateError, match=match):
        replay(d)
    assert calls == ([] if refused else [34])


def test_p3_first_scalar_form_takes_the_default_covector(monkeypatch):
    """check_p3 passes no covector for At1: At1[1][0] = 4*mu is a nonzero
    constant, so the covector is e_2 and the scalar form is
    D^2 - 4 - 4*mu/x."""
    from fractions import Fraction
    import irred.verdict as verdict
    calls = []
    scalarize = verdict.cyclic_vector_scalarize

    def recording(*args, **kw):
        calls.append((len(args), kw))
        return scalarize(*args, **kw)

    monkeypatch.setattr(verdict, "cyclic_vector_scalarize", recording)
    cert = check_p3([Fraction(1, 2)])
    assert calls[0] == (1, {})
    rec, = cert.find("operator_identity")
    l2 = parse_operator("D^2 - 4 - 4*mu/x", "x", ("mu",))
    assert rec["a"] == rec["b"] == str(l2)
    assert replay(cert) == len(cert.evidence)


# ---------------------------------------------------------------------------
# every claimed field is re-derived by replay

# the fields of each claim-carrying kind: its inputs and data, then the
# fields the build derives and replay re-derives
_RECORD_FIELDS = {
    "screen": ({"operator", "var", "mu"}, ("tag", "reason")),
    "pole_shortcut": ({"p", "var", "n"}, ("orders", "applies")),
    "degree_argument": ({"operator", "rhs", "var"},
                        ("sigma", "indicial_infinity", "integer_roots",
                         "degree_bound")),
    "scalar_rational": ({"operator", "rhs", "var", "mu"},
                        ("solvable", "denominator", "degree",
                         "homogeneous_dimension", "particular")),
    "rational_system": ({"matrix", "rhs", "var", "mu"},
                        ("solvable", "homogeneous_dimension")),
    "lie_dimension": ({"var", "params", "generators", "coefficients",
                       "classification"}, ("dimension",)),
}
_FAMILY_KINDS = ("screen", "pole_shortcut", "degree_argument",
                 "scalar_rational", "rational_system")
_CLAIM_CERTIFICATES = {
    "family": _FAMILY_KINDS,
    "family-solvable": _FAMILY_KINDS,
    "p2": _FAMILY_KINDS + ("lie_dimension",),
    "p3": ("screen", "lie_dimension", "rational_system", "scalar_rational"),
}


@pytest.fixture(scope="module")
def claim_certificates(p3_certificate_text):
    from irred.verdict import check_p2
    return {
        "family": criterion_airy_family(EquationFamily(3, "x")).to_json(),
        "family-solvable": criterion_airy_family(
            EquationFamily(3, "64*x^2/3")).to_json(),
        "p2": check_p2().to_json(),
        "p3": p3_certificate_text,
    }


def _edited(value):
    if value is None:
        return "1"
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return value + [1]
    return value + "1"


def test_every_record_field_is_an_input_or_a_claim(claim_certificates):
    seen = set()
    for name, text in claim_certificates.items():
        for rec in json.loads(text)["evidence"]:
            if rec["kind"] in _RECORD_FIELDS:
                inputs, claims = _RECORD_FIELDS[rec["kind"]]
                assert set(rec) - {"kind", "hash"} <= inputs | set(claims)
                assert set(claims) <= set(rec)
                seen.add((name, rec["kind"]))
    assert seen == {(name, kind) for name, kinds in _CLAIM_CERTIFICATES.items()
                    for kind in kinds}


@pytest.mark.parametrize("name,kind,field", [
    (name, kind, field) for name, kinds in _CLAIM_CERTIFICATES.items()
    for kind in kinds for field in _RECORD_FIELDS[kind][1]])
def test_edited_claim_fails_replay(claim_certificates, name, kind, field):
    """An edit of any claimed field, re-hashed, fails replay: the build
    and replay derive each claim by the same function."""
    from irred.verdict import _record_hash
    doc = json.loads(claim_certificates[name])
    assert replay(doc) == len(doc["evidence"])
    rec = next(r for r in doc["evidence"] if r["kind"] == kind)
    rec[field] = _edited(rec[field])
    rec["hash"] = _record_hash(rec)
    with pytest.raises(CertificateError):
        replay(doc)


def _spy_calls(monkeypatch, names):
    """Count the calls of each function named "module.function", through
    every binding of it in the irred modules."""
    import importlib
    import pkgutil
    from collections import Counter
    import irred
    modules = [irred] + [importlib.import_module("irred." + m.name)
                         for m in pkgutil.iter_modules(irred.__path__)]
    calls = Counter()
    for name in names:
        module, attr = name.rsplit(".", 1)
        real = getattr(importlib.import_module("irred." + module), attr)

        def counting(*args, real=real, attr=attr, **kw):
            calls[attr] += 1
            return real(*args, **kw)

        for m in modules:
            if getattr(m, attr, None) is real:
                monkeypatch.setattr(m, attr, counting)
    return calls


@pytest.mark.parametrize("name,build_counts,replay_counts", [
    ("family", dict(cyclic_vector_scalarize=0, lift_solutions=0,
                    sym_power_chain=1, degree_bound=1),
     dict(cyclic_vector_scalarize=1, degree_bound=1)),
    ("p3", dict(cyclic_vector_scalarize=2, sym_power_operator=1,
                sym_power_chain=1, degree_bound=5),
     dict(cyclic_vector_scalarize=1, degree_bound=5)),
])
def test_build_and_replay_operation_counts(monkeypatch, name, build_counts,
                                           replay_counts):
    """A family n = 8 and a p3 certificate each solve one scalar equation
    and screen once, in the build and in its replay; the build alone
    forms the symmetric power.  The family build takes the scalar form
    and the lift in closed form, with no Krylov pass; its replay, and
    the p3 build and replay, scalarize by the Krylov pass and lift once
    (the p3 build also scalarizes the first gauged system, and
    certify_sl2 bounds degrees)."""
    from collections import Counter
    from fractions import Fraction
    calls = _spy_calls(monkeypatch, [
        "ratsolve.rational_solutions", "linops.cyclic_vector_scalarize",
        "ratsolve.lift_solutions", "screen.certify_sl2",
        "ratsolve.degree_bound", "linops.sym_power_operator",
        "linops.sym_power_chain"])
    one = dict(rational_solutions=1, lift_solutions=1, certify_sl2=1)
    cert = (criterion_airy_family(EquationFamily(8, "x")) if name == "family"
            else check_p3([Fraction(1, 2)]))
    # Counter equality counts a missing name as zero calls
    assert calls == Counter(dict(one, **build_counts))
    calls.clear()
    assert replay(cert.to_json()) == len(cert.evidence)
    assert calls == Counter(dict(one, **replay_counts))


@pytest.mark.parametrize("n", range(2, 9))
def test_family_build_and_p2_run_no_krylov_pass(monkeypatch, n):
    """Family builds, solvable (P planted, y = t^2 + 1) and not (P = x,
    except at n = 3), and check_p2 neither scalarize by the Krylov pass
    nor lift through it."""
    import math
    from irred.verdict import check_p2
    calls = _spy_calls(monkeypatch, ["linops.cyclic_vector_scalarize",
                                     "ratsolve.lift_solutions"])
    planted = _planted_family_p(n, parse_ratfun("t^2 + 1", "t"))
    solvable = str(planted / math.factorial(n)).replace("t", "x")
    verdicts = [criterion_airy_family(EquationFamily(n, P)).verdict
                for P in (solvable, "x")]
    assert verdicts == [INCONCLUSIVE, INCONCLUSIVE if n == 3 else IRREDUCIBLE]
    if n == 3:
        assert check_p2().verdict == IRREDUCIBLE
    assert not calls


# ---------------------------------------------------------------------------
# the degree bound the rational solver accepts

@pytest.mark.parametrize("n,P,bound", [
    (3, "x^64", 63), (2, "x^64", 62), (2, "x^32/(x-1)^32", 26)])
def test_honest_degree_bounds_build_and_replay(n, P, bound):
    cert = criterion_airy_family(EquationFamily(n, P))
    rec, = cert.find("scalar_rational")
    assert rec["degree"] == bound
    assert replay(cert.to_json()) == len(cert.evidence)


def test_crafted_degree_bound_fails_fast():
    """A re-hashed scalar_rational record on t*D - 1000000, whose integer
    exponent 1000000 at infinity would make the solver build a million
    images, fails replay in well under 1 s of CPU."""
    import time
    from irred.verdict import _record_hash
    d = json.loads(criterion_airy_family(EquationFamily(3, "x")).to_json())
    rec, = [r for r in d["evidence"] if r["kind"] == "scalar_rational"]
    rec["operator"] = "t*D - 1000000"
    rec["hash"] = _record_hash(rec)
    start = time.process_time()
    with pytest.raises(CertificateError,
                       match="degree bound 1000000 exceeds 64"):
        replay(d)
    assert time.process_time() - start < 1


@pytest.mark.parametrize("kind,operator,why", [
    ("scalar_rational", "t*D + 1000000",
     "denominator bound of degree 1000000 exceeds 64"),
    ("screen", "D^2 - 4 - 400/t", 'screen.tag changed: "undetermined"'),
    ("screen", "D^2 - t - 1000001000000/t^2 + 1/t",
     'screen.tag changed: "undetermined"'),
    ("screen", "D^2 - 1 + " + " + ".join("1/(t-%d)" % i for i in range(24)),
     'screen.tag changed: "undetermined"'),
])
def test_crafted_searches_fail_fast(kind, operator, why):
    """Re-hashed records whose searches have no honest size: a
    denominator t^1000000, an exponential witness of degree 100, a
    resonance index of 2000001, and 24 rational singular points.  Each budget refuses before the work,
    and replay fails in under 0.1 s of CPU."""
    import time
    from irred.verdict import _record_hash
    d = json.loads(criterion_airy_family(EquationFamily(3, "x")).to_json())
    rec = next(r for r in d["evidence"] if r["kind"] == kind)
    rec["operator"] = operator
    rec["hash"] = _record_hash(rec)
    start = time.process_time()
    with pytest.raises(CertificateError, match=why):
        replay(d)
    assert time.process_time() - start < 0.1
