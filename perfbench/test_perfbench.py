"""Self-tests of the benchmark:  python3 -m pytest perfbench -q

The last test runs every workload once and takes about two minutes.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import gen
import hostspeed
import run
import sympower
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
COUNT_UNITS = ("count", "B", "1")


def test_same_seed_same_inputs_and_other_seed_other_draw():
    for workload in ("family", "p3"):
        assert gen.inputs(workload, 7) == gen.inputs(workload, 7)
        assert gen.inputs(workload, 7) != gen.inputs(workload, 8)
    assert gen.inputs("p2", 7)["inputs"] == gen.inputs("p2", 8)["inputs"]


def test_expected_verdicts_rest_on_the_degree_shift():
    for n, s in gen.SIGMA.items():
        assert sympower.sigma(n + 1) == s
    # the anchor n=3 P=x: p = 3! * t = Sym^4(D^2 - t) applied to 3/32
    assert sympower.apply(4, sympower.poly([Fraction(3, 32)])) \
        == 6 * sympower.t
    expected = [v for _, _, v in gen.FAMILY_ANCHORS]
    assert expected == ["IRREDUCIBLE", "INCONCLUSIVE",
                        "IRREDUCIBLE", "IRREDUCIBLE"]


def test_rate_gives_wall_and_reference_seconds():
    with hostspeed.Sampler(period=0.01) as sampler:
        a = time.perf_counter()
        while time.perf_counter() - a < 0.2:
            hostspeed.probe()
        b = time.perf_counter()
    assert len(sampler.samples) >= hostspeed.MIN_SAMPLES
    sampled, plain = {"build_at": (a, b)}, {"replay_at": (a, b)}
    run.rate([sampled], sampler)
    run.rate([plain])
    assert 0 < sampled["build_wall_s"] < b - a
    assert sampled["build_s"] == pytest.approx(
        sampled["build_wall_s"] * sampler.speed(a, b))
    assert plain["replay_s"] == plain["replay_wall_s"] == b - a


def test_wrappers_replace_every_binding():
    irred = run.import_irred()
    assert tracer.installed_wrappers() == []
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tracer.unwrapped_bindings() == []
        # a name bound by `from ... import` in another module is wrapped
        assert hasattr(irred.verdict.lie_closure, "perfbench_traced")
        assert hasattr(irred.lie_closure, "perfbench_traced")
    finally:
        tr.uninstall()
    assert tracer.installed_wrappers() == []


def test_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    seen = []
    run_pass = run.run_pass

    def checked(*args, **kwargs):
        seen.append(tracer.installed_wrappers())
        return run_pass(*args, **kwargs)

    monkeypatch.setattr(run, "run_pass", checked)
    run.main(["--workload", "p2", "--seed", "1", "--seconds", "0",
              "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert seen == [[]]
    assert tracer.installed_wrappers() == []
    assert result["correct"]


_TRACE_ONE = """
import json, run
irred = run.import_irred()
item = {"label": "n=3 P=2", "kind": "family", "n": 3, "P": "2",
        "expected": "IRREDUCIBLE"}
tr, records, _ = run.traced(irred, {"inputs": [item]})
print(json.dumps({"ok": records[0]["ok"], "metrics": tr.metrics(1.0)}))
"""


def _trace_one(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run([sys.executable, "-c", _TRACE_ONE], cwd=HERE,
                         env=env, capture_output=True, text=True,
                         timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_layer_counts_repeat_and_routing_holds():
    a, b = _trace_one(0), _trace_one(1)
    assert a["ok"] and b["ok"]
    counts = {k: v["value"] for k, v in a["metrics"].items()
              if v["unit"] in COUNT_UNITS}
    assert counts == {k: v["value"] for k, v in b["metrics"].items()
                      if v["unit"] in COUNT_UNITS}
    assert counts["field.FieldElem.new_q.calls"] > 0
    assert counts["field.FieldElem.new_mu.calls"] == 0
    assert counts["liealg.lie_closure.calls"] == 0
    assert all(v == 0 for k, v in counts.items()
               if k.startswith("jets.") and k.endswith(".calls"))


def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == tracer.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_workload_is_correct(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True,
        timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert result["metrics"]["tamper_caught_ratio"]["value"] > 0
