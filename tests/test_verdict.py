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
    '{"input": {}, "graded": 5, "evidence": [], "verdict": null}',
    '{"input": {}, "graded": [1], "evidence": [], "verdict": null}',
    '{"input": {}, "graded": [{"kind": "note"}], "evidence": [], '
    '"verdict": null}',
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
    """check_p3 and its replay find the order-3 dimension 8 by a closure
    of the parts of At3 at mu = 1 over Q, never over Q(mu)."""
    from fractions import Fraction
    calls = _closure_rejecting_field_elems(monkeypatch)
    cert = check_p3([Fraction(1, 2)])
    rec, = cert.find("lie_dimension")
    assert rec["dimension"] == 8
    assert replay(cert.to_json()) == len(cert.evidence)
    assert len(calls) == 2


def test_p3_replay_builds_no_field_elem_and_the_build_none_over_mu(
        monkeypatch):
    """check_p3 builds no FieldElem with mu among its parameters (the
    chain runs over Q(w) and Q, and each rational mu is put in by the
    reading rule), and its replay builds no FieldElem at all."""
    from fractions import Fraction
    from irred.field import FieldElem
    seen = []
    init = FieldElem.__init__

    def spy(self, params, *args, **kw):
        seen.append(tuple(params))
        init(self, params, *args, **kw)

    monkeypatch.setattr(FieldElem, "__init__", spy)
    cert = check_p3([Fraction(1, 2), Fraction(-7, 3)])
    assert seen and not any("mu" in params for params in seen)
    seen.clear()
    assert replay(cert.to_json()) == len(cert.evidence)
    assert seen == []


def test_each_p3_record_replays_alone_with_the_graded_section(
        p3_certificate_text):
    """The graded matrices form a section of their own, checked before
    the evidence, so each evidence record replays in a call of its own
    beside it, as a per-record trace replays them; without the section,
    a record that names a matrix fails."""
    doc = json.loads(p3_certificate_text)
    assert [r["name"] for r in doc["graded"]] == [
        "A1", "Q1", "At1", "At2", "At3", "M1", "M2", "M3", "Psi", "Psi1",
        "Psi2", "Psi3", "b"]
    for rec in doc["evidence"]:
        assert replay(dict(doc, evidence=[rec])) == 1
    trace, = [r for r in doc["evidence"] if r["kind"] == "trace_zero"]
    with pytest.raises(CertificateError, match="no graded matrix named"):
        replay({"input": doc["input"], "evidence": [trace],
                "verdict": doc["verdict"]})


def _p3_tampered(p3_certificate_text, name, **fields):
    """The p3 certificate with the graded record name edited, re-hashed."""
    from irred.verdict import _record_hash
    doc = json.loads(p3_certificate_text)
    rec = _graded_record(doc, name)
    rec.update(fields)
    rec["hash"] = _record_hash(rec)
    return doc


@pytest.mark.parametrize("name, fields, match", [
    # a wrong weight, with the grading kept or renamed to match none
    ("At3", dict(weights=[0, 1, 2, 3, 1, 2, 3, 2, 4]),
     "matrix.weights changed"),
    ("Psi1", dict(grading="N2"), "matrix.weights changed: null"),
    # M1 regraded by A2, which is not the grading of the M3 it brackets
    ("M1", dict(grading="A2", weights=[0, 1, 2, 0, 1]), "mixes gradings"),
    # shifts that do not balance: in a lincomb term, and in a bracket
    ("Psi2", dict(shift=0), "shifts do not balance"),
    ("M3", dict(shift=1), "shifts do not balance"),
    ("At1", dict(shift=1), "Krylov row v_1"),
    ("M2", dict(shift="0"), "'M2': a shift that is no int"),
    # an edited unit entry, in an input and in an expected side
    ("At1", dict(rows=[["0", "(x + 1)/(x)"], ["5", "0"]]),
     "operator identity fails"),
    ("At1", dict(rows=[["1", "(x + 1)/(x)"], ["4", "0"]]),
     "trace is not zero"),
    ("Psi2", dict(rows=[["1"] + ["0"] * 4] + [["0"] * 5] * 4), "fails"),
    ("At2", dict(rows=[["0"] * 5] * 5), "'At2 = .*' fails"),
    ("Psi3", dict(rows=[["0"] * 5] * 5), "'Psi3 = \\[Psi1, Psi2\\]' fails"),
], ids=["weight", "grading", "mixed", "lincomb-shift", "bracket-shift",
        "operator-shift", "shift-type", "At1-entry", "At1-trace",
        "Psi2-entry", "At2-entry", "Psi3-entry"])
def test_p3_tampered_graded_record_fails(p3_certificate_text, name, fields,
                                         match):
    """A re-hashed graded record with a wrong weight, a shift that does
    not balance, or an edited unit entry fails replay."""
    doc = _p3_tampered(p3_certificate_text, name, **fields)
    with pytest.raises(CertificateError, match=match):
        replay(doc)


@pytest.mark.parametrize("edit, match", [
    (lambda d: d["evidence"].append({
        "kind": "decomposition", "matrix": [["0"]], "cinf": [["0"]],
        "c0": [["0"]], "var": "x", "params": ["mu"]}),
     "unknown evidence kind 'decomposition'"),
    (lambda d: next(r for r in d["evidence"] if r["kind"] == "trace_zero")
     .update(matrix=[["0", "1/mu + 1/x"], ["4*mu", "0"]], params=["mu"]),
     "no graded matrix named"),
    (lambda d: next(r for r in d["evidence"] if r["kind"] == "lie_dimension")
     .update(matrix="Psi9"), "no graded matrix named 'Psi9'"),
    (lambda d: _graded_record(d, "M3").update(name="M1"),
     "'M1': a shift that is no int, a name taken"),
], ids=["decomposition", "trace-rows", "unknown-name", "twice-named"])
def test_p3_records_of_the_q_mu_format_fail(p3_certificate_text, edit,
                                             match, tmp_path):
    """A record of the Q(mu) format (a decomposition, or a trace_zero over
    its own rows), a name that no graded record carries and a name
    taken twice each fail replay, and `irred replay` exits 1."""
    from irred.cli import main
    from irred.verdict import _record_hash
    doc = json.loads(p3_certificate_text)
    edit(doc)
    for rec in doc["graded"] + doc["evidence"]:
        rec["hash"] = _record_hash(rec)
    with pytest.raises(CertificateError, match=match):
        replay(doc)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["replay", str(path)]) == 1


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
    del rec["matrix"]
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


def _graded_record(doc, name):
    """The graded matrix or vector record of doc named name."""
    return next(r for r in doc["graded"] if r["name"] == name)


@pytest.mark.parametrize("i,j,entry,dim", [
    (7, 1, "(4/3*x + 4/3)/(x)", 8),
    (7, 5, "1 + 1/x", 17),
], ids=["same-span", "larger-span"])
def test_p3_edited_at3_entry_replays_through_lie_closure(
        p3_certificate_text, monkeypatch, i, j, entry, dim):
    """The lie_dimension record names At3, and replay takes lie_closure
    on its parts at mu = 1 over Q with the record's 8 as its limit: an
    edited entry that keeps the span replays, and one that widens it
    stops as soon as the span passes 8."""
    import irred.liealg as liealg
    from irred.verdict import _record_hash
    doc = json.loads(p3_certificate_text)
    rec = _graded_record(doc, "At3")
    assert rec["rows"][i][j] != entry
    rec["rows"][i][j] = entry
    rec["hash"] = _record_hash(rec)
    calls = []
    real = liealg.lie_closure

    def spying(gens, limit=None):
        assert all(x.__class__ is int for G in gens for row in G
                   for x in row)
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


def test_p3_decomposition_parts_must_be_constants(p3_certificate_text):
    """At2 = (1/mu + 1/x) M1 + M2 decomposes At2 into its parts.  M2 := At2
    and M1 := 0 satisfies that identity, but M2 is not constant: the
    bracket table that takes M2 refuses it."""
    from irred.verdict import _record_hash
    doc = json.loads(p3_certificate_text)
    assert replay(doc) == len(doc["evidence"])
    m1, m2 = (_graded_record(doc, name) for name in ("M1", "M2"))
    m2["rows"] = _graded_record(doc, "At2")["rows"]
    m1["rows"] = [["0"] * len(row) for row in m1["rows"]]
    for rec in (m1, m2):
        rec["hash"] = _record_hash(rec)
    with pytest.raises(CertificateError, match="expected constant entry"):
        replay(doc)


@pytest.mark.parametrize("edit, match", [
    (lambda doc: _graded_record(doc, "M1").update(
        rows=[row[:-1] for row in _graded_record(doc, "M1")["rows"]]),
     "ragged or differs in shape"),
    (lambda doc: _graded_record(doc, "M2").update(
        rows=_graded_record(doc, "M1")["rows"]),
     "identity 'At2 = \\(1/mu \\+ 1/x\\) M1 \\+ M2' fails"),
], ids=["shape", "sum"])
def test_p3_decomposition_parts_must_sum_to_the_matrix(
        p3_certificate_text, edit, match):
    """M1 with a column dropped, or M2 := M1, re-hashed: the parts of At2
    must have its shape and sum to it."""
    from irred.verdict import _record_hash
    doc = json.loads(p3_certificate_text)
    edit(doc)
    for rec in doc["graded"]:
        rec["hash"] = _record_hash(rec)
    with pytest.raises(CertificateError, match=match):
        replay(doc)


def _identity_records(doc):
    """(kind, record, graded record of its expected side) of every
    identity record in doc."""
    return [(r["kind"], r, _graded_record(doc, r["expect"]))
            for r in doc["evidence"]
            if r["kind"] in ("bracket_identity", "lincomb_identity")]


def _respelled(text):
    """The value of text, spelled otherwise."""
    return "2*2" if text == "4" else "(%s)*2/2" % text


@pytest.mark.parametrize("edit", ["wrong", "respelled"])
def test_identity_expected_side_is_compared_as_canonical_text(
        p3_certificate_text, edit):
    """Replay derives the expected side of each identity record and
    compares its printed form with the graded matrix the record names: a
    re-hashed matrix with a wrong value, or with the right value spelled
    otherwise, fails."""
    from irred.verdict import _record_hash
    records = _identity_records(json.loads(p3_certificate_text))
    assert sorted({k for k, _, _ in records}) == [
        "bracket_identity", "lincomb_identity"]
    for i in range(len(records)):
        doc = json.loads(p3_certificate_text)
        _, _, rec = _identity_records(doc)[i]
        row = next(r for r in rec["rows"] if any(e != "0" for e in r))
        j = next(j for j, e in enumerate(row) if e != "0")
        value = parse_ratfun(row[j], "x")
        if edit == "wrong":
            row[j] = str(value + 1)
        else:
            row[j] = _respelled(row[j])
            assert parse_ratfun(row[j], "x") == value
        rec["hash"] = _record_hash(rec)
        with pytest.raises(CertificateError, match="fails"):
            replay(doc)


def _p3_record(doc, relation):
    return next(r for r in doc["evidence"] if r.get("relation") == relation)


def _widened(rows):
    """rows with a junk column and a junk row."""
    return [row + ["7"] for row in rows] + [["7"] * (len(rows[0]) + 1)]


_LINCOMB = "Psi = (1/mu + 1/x) Psi1 + 4 mu Psi2"


@pytest.mark.parametrize("relation, names, edit", [
    # the matrix of the second lincomb term widened, and that of the
    # first one made ragged
    (_LINCOMB, lambda rec: [rec["terms"][1][2]], _widened),
    (_LINCOMB, lambda rec: [rec["terms"][0][2]],
     lambda rows: rows[:2] + [rows[2][:-1]] + rows[3:]),
    # b of a bracket widened, and a and b both made 5 x 6
    ("[M2, M3] = M2", lambda rec: [rec["b"]], _widened),
    ("[M2, M3] = M2", lambda rec: [rec["a"], rec["b"]],
     lambda rows: [row + ["0"] for row in rows]),
], ids=["wide-term", "ragged-term", "wide-b", "non-square"])
def test_identity_terms_of_other_shapes_fail(p3_certificate_text, relation,
                                             names, edit):
    """zip would truncate a wider or ragged term, so each graded matrix
    that an identity names must be refused on its shape before any
    product: square, and of the size of its weights."""
    from irred.verdict import _record_hash
    doc = json.loads(p3_certificate_text)
    for name in names(_p3_record(doc, relation)):
        rec = _graded_record(doc, name)
        rec["rows"] = edit(rec["rows"])
        rec["hash"] = _record_hash(rec)
    with pytest.raises(CertificateError, match="ragged or differs in shape"):
        replay(doc)


def test_bracket_identity_inputs_must_be_constants(p3_certificate_text):
    """The bracket is taken over Q: a bracket identity whose a names At2,
    whose entries depend on x, is refused before any bracket is
    formed, though At2 has the grading and the shift of M2."""
    from irred.verdict import _record_hash
    doc = json.loads(p3_certificate_text)
    rec = _p3_record(doc, "[M2, M3] = M2")
    rec["a"] = "At2"
    rec["hash"] = _record_hash(rec)
    with pytest.raises(CertificateError, match="expected constant entry"):
        replay(doc)


def _leaves(x):
    if isinstance(x, str):
        return {x}
    if isinstance(x, list):
        return set().union(*map(_leaves, x))
    return set()


def test_replay_parses_no_expected_side(p3_certificate_text, monkeypatch):
    """Replay of the p3 certificate parses only the inputs of its
    records: no string that only an identity's expected side, or a
    graded record that no identity takes, holds is ever parsed."""
    import irred.verdict as verdict
    parsed = set()
    real = verdict.parse_ratfun

    def spying(text, var, params):
        parsed.add(text)
        return real(text, var, params)

    monkeypatch.setattr(verdict, "parse_ratfun", spying)
    doc = json.loads(p3_certificate_text)
    assert replay(doc) == len(doc["evidence"])

    graded = {r["name"]: r for r in doc["graded"]}
    taken, inputs = set(), set()
    for rec in doc["evidence"]:
        if rec["kind"] in ("operator", "note"):
            continue
        for k, v in rec.items():
            if k in ("a", "b", "matrix") and isinstance(v, str):
                taken.add(v)
            elif k == "terms":
                taken.update(name for _, _, name in v)
                inputs |= {c for c, _, _ in v}
            elif k not in ("expect", "operator") or rec["kind"] not in (
                    "bracket_identity", "lincomb_identity",
                    "operator_identity"):
                inputs |= _leaves(v)
    for name in taken:
        inputs |= _leaves(graded[name]["rows"])
    others = set().union(*(_leaves(r.get("rows", r.get("entries")))
                           for name, r in graded.items()
                           if name not in taken))
    assert others - inputs
    assert parsed <= inputs
    assert not parsed & (others - inputs)


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
    """check_p3 and its replay pass no covector for At1: At1[1][0] = 4 is
    a nonzero constant at mu = 1, so the covector is e_2 and the scalar
    form is D^2 - 4 - 4/x, which stands for D^2 - 4 - 4*mu/x."""
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
    assert rec["matrix"] == "At1"
    assert rec["operator"] == str(parse_operator("D^2 - 4 - 4/x", "x"))
    calls.clear()
    assert replay(cert) == len(cert.evidence)
    assert calls[0] == (1, {})


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
                       "matrix", "classification"}, ("dimension",)),
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
     dict(cyclic_vector_scalarize=2, degree_bound=5)),
])
def test_build_and_replay_operation_counts(monkeypatch, name, build_counts,
                                           replay_counts):
    """A family n = 8 and a p3 certificate each solve one scalar equation
    and screen once, in the build and in its replay; the build alone
    forms the symmetric power.  The family build takes the scalar form
    and the lift in closed form, with no Krylov pass; its replay, and
    the p3 build and replay, scalarize by the Krylov pass and lift once
    (the p3 build and replay also scalarize the first gauged system, and
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
