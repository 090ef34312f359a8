"""Fixtures shared by several test modules."""

import pytest


@pytest.fixture(scope="session")
def p3_certificate_text(tmp_path_factory):
    """The text of `irred p3 --mu 1/2 --json`, built once per session."""
    from irred.cli import main
    out = tmp_path_factory.mktemp("p3") / "cert.json"
    code = main(["p3", "--mu", "1/2", "--json", str(out)])
    assert code == 0
    return out.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def p3_chain():
    """The symbolic Painleve III chain over Q(mu), built once per session."""
    from irred.jets import build_p3_chain
    return build_p3_chain()


@pytest.fixture
def rref_calls(monkeypatch):
    """Row counts of the matrices eliminated by irred.linear.rref."""
    import irred.linear
    calls = []
    rref = irred.linear.rref

    def counting(m, *args):
        calls.append(len(m))
        return rref(m, *args)

    monkeypatch.setattr(irred.linear, "rref", counting)
    return calls
