"""Golden certificate hashes: certificates stay byte-identical.

Each hash is the first 16 hex digits of the sha256 of to_json().  A
deliberate change of the certificate format changes them; such a change
replaces the table here and in ROADMAP.md together.
"""

import hashlib
from fractions import Fraction

import pytest

from irred.jets import EquationFamily
from irred.verdict import check_p2, check_p3, criterion_airy_family, replay


def _short_hash(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("n,P,want", [
    (2, "x", "e92324a15425cf6b"),
    (3, "x", "135437cf6189cb3b"),
    (3, "2", "a1dea61563b2ca4c"),
    (4, "x^2", "93f40317ccab605e"),
])
def test_family_golden_hash(n, P, want):
    cert = criterion_airy_family(EquationFamily(n, P))
    assert _short_hash(cert.to_json()) == want


def test_p2_golden_hash():
    assert _short_hash(check_p2().to_json()) == "396d0af96884999b"


def test_p3_golden_hash(p3_certificate_text):
    # the CLI writes check_p3([1/2]).to_json() and one newline
    assert p3_certificate_text.endswith("\n")
    assert _short_hash(p3_certificate_text[:-1]) == "051edcd2285886e9"


def test_p3_two_mu_golden_hash():
    cert = check_p3([Fraction(1, 2), Fraction(-7, 3)])
    assert _short_hash(cert.to_json()) == "2ab77b113f4ce8b9"


@pytest.mark.parametrize("n,P", [(2, "x"), (3, "x"), (3, "2"), (4, "x^2"),
                                 (32, "x"), (2, "x^64")])
def test_family_certificate_replays_within_parse_budget(n, P):
    """Certificates of inputs at the family budgets (n = 32, a degree-64
    p) parse within the grammar's power budget."""
    cert = criterion_airy_family(EquationFamily(n, P))
    assert replay(cert.to_json()) == len(cert.evidence)


def test_p2_p3_certificates_replay_within_parse_budget(p3_certificate_text):
    cert = check_p2()
    assert replay(cert.to_json()) == len(cert.evidence)
    assert replay(p3_certificate_text) > 0
