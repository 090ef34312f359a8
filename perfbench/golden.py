"""Print the golden certificate hashes beside the ones ROADMAP.md lists.

    python3 perfbench/golden.py

Builds the six golden inputs (about a minute) and prints the first 16 hex
digits of the sha256 of each to_json().  This is information, not a
gate: a deliberate change of the certificate format changes the hashes.
The family and p2 workloads of run.py print their own anchors' hashes.
"""

import run


def main():
    irred = run.import_irred()
    items = run.gen.family_anchors() + [
        {"label": "p2", "kind": "p2"},
        {"label": "p3 mu=1/2", "kind": "p3", "mus": ["1/2"]}]
    for item in items:
        got = run.short_hash(run.build(irred, item).to_json())
        want = run.gen.GOLDEN[item["label"]]
        print("%-18s %s  ROADMAP %s  %s" % (
            item["label"], got, want, "same" if got == want else "differs"),
            flush=True)


if __name__ == "__main__":
    main()
