"""Benchmark of irred: build and replay certificates on generated inputs.

    python3 perfbench/run.py --workload family|p3|p2 --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; irred is imported from its src/.  The
load is a closed loop with one client: one process builds and replays the
inputs one after another, with no threads.

--trace 0 builds each input of the run, and replays its certificate, a
fixed number of times that grows with S (see sample_counts()), and
reports the end-to-end metrics.  A time metric is the sum over the
inputs of the low median of that input's times.
--trace 1 makes one untraced build pass, installs the per-layer wrappers
(tracer.py), makes one traced pass and reports the per-layer metrics;
its spans go to perfbench/out/.  The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [SRC, HERE]

import gen  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402

SETUP_PROBES = 5        # fresh interpreters timed per run for setup_s
PROBE_TIMEOUT = 60

# (builds, replays) of each input in a run of RUN_S seconds.  On the
# reference machine, a 2-core Linux VM with Python 3.11, a family run then
# takes about 24 s, a p2 run 17 s and a p3 run 32 s when the host is idle
# (one check_p3 build takes about 14 s and its replay 8 s): about RUN_S
# on average.
RUN_S = 25
SAMPLES = {"family": (2, 2), "p3": (1, 2), "p2": (3, 3)}


def setup(workload, seed):
    """Time SETUP_PROBES fresh set-ups.

    Returns the seconds of each at reference speed, their wall seconds and
    the inputs.  Each set-up samples the host's speed itself and reports
    the probe times on its second line of output.
    """
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
           workload, str(seed)]
    times, walls, outputs = [], [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True) as proc:
            try:
                line = proc.stdout.readline()
                wall = time.perf_counter() - start
                probes = proc.stdout.readline()
                proc.communicate(timeout=PROBE_TIMEOUT)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if proc.returncode != 0 or not line.strip():
            raise RuntimeError("set-up failed (exit code %s)"
                               % proc.returncode)
        probes = json.loads(probes)
        walls.append(wall - sum(probes))
        times.append(walls[-1] * hostspeed.speed_of(probes))
        outputs.append(line)
    if len(set(outputs)) != 1:
        raise RuntimeError("set-up is not deterministic for seed %d" % seed)
    return times, walls, json.loads(outputs[0])


def import_irred():
    import irred
    if not os.path.abspath(irred.__file__).startswith(SRC + os.sep):
        raise RuntimeError("irred imported from %s, not from %s"
                           % (irred.__file__, SRC))
    return irred


def build(irred, item):
    kind = item["kind"]
    if kind == "family":
        return irred.criterion_airy_family(
            irred.EquationFamily(item["n"], item["P"]))
    if kind == "p2":
        return irred.check_p2()
    if kind == "p3":
        return irred.check_p3([Fraction(m) for m in item["mus"]])
    raise ValueError("unknown input kind %r" % kind)


def short_hash(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def host_probe():
    """Seconds of a fixed pure-Python Fraction loop that never uses irred."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 20001):
        acc = (acc + Fraction(k % 97, k % 89 + 1)) % 7
    return time.perf_counter() - start


def run_pass(irred, items, tr=None, texts=None, build_it=True,
             replay_it=True):
    """Build and replay every input once; one record per input.

    With texts (a list, one entry per input), a pass that does not build
    replays the certificate text of the input's last build, and a build
    stores its text there.  With a tracer, replay goes one record at a
    time, so that each evidence kind gets its own span.
    """
    if texts is None:
        texts = [None] * len(items)
    records = []
    for i, item in enumerate(items):
        rec = {"label": item["label"], "expected": item["expected"],
               "ok": False}
        if tr is not None:
            tr.input_id = i
        try:
            if build_it:
                gc.collect()
                c0, w0 = time.process_time(), time.perf_counter()
                texts[i] = build(irred, item).to_json()
                rec.update(build_at=(w0, time.perf_counter()),
                           build_cpu_s=time.process_time() - c0,
                           bytes=len(texts[i].encode("utf-8")),
                           hash=short_hash(texts[i]))
            cert = json.loads(texts[i])
            rec["verdict"] = cert["verdict"]
            if replay_it:
                gc.collect()
                c0, w0 = time.process_time(), time.perf_counter()
                if tr is None:
                    irred.replay(texts[i])
                else:
                    for r in cert["evidence"]:
                        one = irred.Certificate.from_dict(
                            dict(cert, evidence=[r]))
                        tr.span("verdict.replay." + r["kind"], one.replay)
                rec.update(replay_at=(w0, time.perf_counter()),
                           replay_cpu_s=time.process_time() - c0)
            rec["ok"] = rec["verdict"] == item["expected"]
        except Exception as e:  # a failing input is counted, not fatal
            rec["error"] = "%s: %s" % (type(e).__name__, e)
        records.append(rec)
    return records


def tamper_set(irred, item):
    """[(case, caught)] for three tampered copies of one certificate."""
    base = json.loads(build(irred, item).to_json())
    cases = []

    edited = json.loads(json.dumps(base))
    rec = next(r for r in edited["evidence"] if r["kind"] == "pole_shortcut")
    rec["orders"] = rec["orders"] + [1]
    cases.append(("record body edited, hash kept", edited))

    flipped = json.loads(json.dumps(base))
    flipped["verdict"] = (gen.INCONCLUSIVE if base["verdict"] == gen.IRREDUCIBLE
                          else gen.IRREDUCIBLE)
    cases.append(("verdict flipped", flipped))

    renamed = json.loads(json.dumps(base))
    renamed["input"]["n"] += 1
    cases.append(("input.n changed", renamed))

    out = []
    for name, cert in cases:
        try:
            irred.replay(json.dumps(cert))
            caught = False
        except irred.CertificateError:
            caught = True
        out.append((name, caught))
    return out


def sample_counts(workload, seconds):
    """(builds, replays) of each input in a run of `seconds` seconds.

    SAMPLES scaled by seconds / RUN_S, at least one each.  The counts
    depend on the workload and the run length only, never on how fast the
    host runs, so every run of a workload uses the same estimator.
    """
    builds, replays = SAMPLES[workload]
    scale = seconds / RUN_S
    return max(1, round(builds * scale)), max(1, round(replays * scale))


def measure(irred, items, builds, replays):
    """Interleaved passes: pass i builds every input if i < builds and
    replays its certificate if i < replays.  The host's speed is sampled
    throughout (hostspeed.py)."""
    texts = [None] * len(items)
    with hostspeed.Sampler() as sampler:
        passes = [run_pass(irred, items, texts=texts, build_it=i < builds,
                           replay_it=i < replays)
                  for i in range(max(builds, replays))]
    for p in passes:
        rate(p, sampler)
    return passes


def rate(records, sampler=None):
    """Set <op>_wall_s and <op>_s of every timed build and replay.

    Without a sampler both are the wall time.  With one, the wall time
    leaves out the probes' own time, and <op>_s is the work in seconds at
    the reference machine's speed (see hostspeed.py).
    """
    for rec in records:
        for op in ("build", "replay"):
            if op + "_at" not in rec:
                continue
            a, b = rec[op + "_at"]
            if sampler is None:
                rec[op + "_wall_s"] = rec[op + "_s"] = b - a
            else:
                wall = b - a - sampler.busy(a, b)
                rec[op + "_wall_s"] = wall
                rec[op + "_s"] = wall * sampler.speed(a, b)


def per_input(passes, key):
    """Sum over the inputs of the low median of `key` over the passes
    that measured it.

    The low median drops a sample that a slow spell of the host hit and
    the speed correction missed; of two samples it is the lower.
    """
    total = 0.0
    for col in zip(*passes):
        values = [r[key] for r in col if key in r]
        total += statistics.median_low(values) if values else 0.0
    return total


def end_to_end(passes, setup_times, tamper):
    records = [r for p in passes for r in p]
    ok = sum(r["ok"] for r in records)
    caught = sum(c for _, c in tamper)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "build_s": (per_input(passes, "build_s"), "s"),
        "replay_s": (per_input(passes, "replay_s"), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "cert_kb": (per_input(passes, "bytes") / 1000, "kB"),
        "ok_ratio": (ok / len(records), "1"),
        "tamper_caught_ratio": (caught / len(tamper), "1"),
    }
    return len(records), len(records) - ok, metrics


def traced(irred, data):
    """One untraced build pass, then one traced build-and-replay pass.

    Returns the tracer, the records of the traced pass and the ratio of
    traced to untraced build time.
    """
    items = data["inputs"]
    untraced = 0.0
    for item in items:
        w0 = time.perf_counter()
        try:
            build(irred, item).to_json()
        except Exception:
            pass  # the traced pass records the failure
        untraced += time.perf_counter() - w0

    tr = tracer.Tracer()
    tr.install()
    records = run_pass(irred, items, tr)
    rate(records)
    tr.input_id = None
    traced_build = sum(r.get("build_s", 0.0) for r in records)
    return tr, records, traced_build / untraced


def report_golden(records):
    for r in records:
        want = gen.GOLDEN.get(r["label"])
        if want and "hash" in r:
            print("golden %-18s %s  ROADMAP %s  %s"
                  % (r["label"], r["hash"], want,
                     "same" if r["hash"] == want else "differs"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    irred = import_irred()
    setup_times, setup_walls, data = setup(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    raw = {"workload": args.workload, "seed": args.seed,
           "setup_s": setup_times, "setup_wall_s": setup_walls,
           "host_probe_s": [host_probe()]}

    if args.trace:
        tr, records, overhead = traced(irred, data)
        tr.write_spans(os.path.join(OUT, "spans-%s.jsonl" % tag))
        attempted = len(records)
        failed = sum(not r["ok"] for r in records)
        metrics = tr.metrics(overhead)
        raw["records"] = records
    else:
        passes = measure(irred, data["inputs"],
                         *sample_counts(args.workload, args.seconds))
        tamper = tamper_set(irred, data["tamper_base"])
        attempted, failed, m = end_to_end(passes, setup_times, tamper)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
        raw["passes"] = passes
        raw["tamper"] = tamper
        report_golden(passes[0])
        for i, p in enumerate(passes):
            parts = ["%s %.3f s (wall %.3f s, cpu %.3f s)"
                     % (op, *(sum(r.get(op + k, 0.0) for r in p)
                              for k in ("_s", "_wall_s", "_cpu_s")))
                     for op in ("build", "replay")
                     if any(op + "_s" in r for r in p)]
            print("pass %d: %s" % (i, ", ".join(parts)))
        print("wall time, low medians as for the metrics: build %.3f s, "
              "replay %.3f s; setup (median) %.3f s"
              % (per_input(passes, "build_wall_s"),
                 per_input(passes, "replay_wall_s"),
                 statistics.median(setup_walls)))
        records = [r for p in passes for r in p]
    raw["host_probe_s"].append(host_probe())

    for r in records:
        if not r["ok"]:
            print("FAILED %s: verdict %s, expected %s %s"
                  % (r["label"], r.get("verdict"), r["expected"],
                     r.get("error", "")))
    with open(os.path.join(OUT, "raw-%s.json" % tag), "w",
              encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    print("host probe %.4f s %.4f s" % tuple(raw["host_probe_s"]))
    for name, m in metrics.items():
        print("%-48s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
