"""Benchmark of ddsls: four closed-loop workloads on the benchmark plant.

    python3 perfbench/run.py --workload compare --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  The package is imported from ``src/`` of
that root, never from an installed copy.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The lines before it print every metric with its unit and
the run manifest; ``perfbench/out/`` receives the per-op records and, for a
traced run, the spans.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 9
MAX_FAILED = 100
BLAS_THREADS = 1  # one caller on one core: steadier and bit-reproducible


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["compare", "certify", "synth-full", "budget"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="one short op per workload, traced and not")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def loadavg() -> list:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


class SpeedProbe:
    """Times a fixed kernel shaped like the program's inner loops.

    The shared 2-core box this benchmark was written on ran the same work up
    to 1.5x slower for minutes at a time, and the program with it.  Op times
    are rescaled by ``REF_S`` over the mean of samples taken before the
    first op and after every half second of op time, i.e. reported in
    seconds at the speed at which the kernel takes ``REF_S``.  The mean, not
    the median: the box flips between a fast and a slow state within
    seconds, and op time grows with the share of time spent slow, which the
    mean of evenly spaced samples estimates.  Each set-up is rescaled by the
    kernel times taken just before and after it.  The raw times are printed
    and stored beside them.
    """

    REF_S = 0.01

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._batch = rng.standard_normal((10, 360, 30))
        self._tall = rng.standard_normal((360, 30))
        self._small = 0.1 * rng.standard_normal((3, 3))
        self.samples: list[float] = []
        self.kernel_s()  # the first call pays one-off library start-up

    def kernel_s(self) -> float:
        import numpy as np

        start = time.perf_counter()
        for _ in range(4):
            np.linalg.eigh(np.matmul(self._batch.transpose(0, 2, 1), self._batch))
            np.linalg.svd(self._tall, full_matrices=False)
        x = np.zeros(3)
        for _ in range(300):
            x = self._small @ x + 1.0
        return time.perf_counter() - start

    def sample(self) -> None:
        self.samples.append(self.kernel_s())

    def scale(self) -> float:
        return self.REF_S / statistics.mean(self.samples)


def manifest(args, ddsls_threads, load_start) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "DDSLS_THREADS": ddsls_threads,
        "git_commit": git_commit(),
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
    }


def tail(durations: list) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it (p50 at least)."""
    import numpy as np

    n = len(durations)
    p = max(50, math.floor(100 * (n - 10) / n)) if n else 50
    return float(np.percentile(durations, p)), p


def time_import() -> float:
    """Seconds of ``import ddsls`` (numpy and scipy included) in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import ddsls; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def execute(wl, bench, inp, tracer=None, label=None):
    """Run one op; returns its wall seconds and its checked outcome."""
    from workloads import EXPECTED_ERRORS, Outcome

    first = len(tracer.spans) if tracer else 0
    result, outcome = None, None
    if tracer:
        tracer.op = label
    start = time.perf_counter()
    try:
        result = wl.op(bench, inp)
    except EXPECTED_ERRORS as exc:
        outcome = Outcome(fingerprint=type(exc).__name__)
    except Exception:
        outcome = Outcome(failures=[traceback.format_exc()])
    finally:
        seconds = time.perf_counter() - start
        if tracer:
            tracer.op = None
    synthesized = [s.info.pop("result") for s in tracer.spans[first:] if "result" in s.info] if tracer else []
    if outcome is None:
        try:
            outcome = wl.check(bench, inp, result, synthesized)
        except Exception:
            outcome = Outcome(failures=[traceback.format_exc()])
    return seconds, outcome


def run_workload(args, wl) -> dict:
    """Set up, (for a traced run) take an untraced reference op, run the timed loop.

    Ops run back to back until their summed wall time reaches the run's
    seconds and at least ``count_ops`` ops are done.
    """
    from tracer import Tracer, count_metrics, layer_metrics
    from workloads import aggregate_quality, make_bench, op_rng

    probe = SpeedProbe()

    def input_at(i):
        return wl.make_input(bench, op_rng(args.seed, wl.name, i), i)

    # Each set-up: import in a fresh interpreter, then the oracle and op 0's
    # input in this process, bracketed by two kernel timings.
    setups = []
    for _ in range(SETUP_REPEATS):
        before = probe.kernel_s()
        imported = time_import()
        start = time.perf_counter()
        bench = make_bench()
        input_at(0)
        built = time.perf_counter() - start
        setups.append({"import_s": imported, "build_s": built, "kernel_s": (before + probe.kernel_s()) / 2})

    tracer, reference = None, None
    if args.trace:
        # Untraced reference for the transparency check: op 0 before any wrapper exists.
        reference = execute(wl, bench, input_at(0))[1]
        tracer = Tracer()
        tracer.install()
        tracer.op = "setup"
        make_bench()
        tracer.op = None

    durations, outcomes = [], []
    busy, failed, probed = 0.0, 0, 0.0
    probe.sample()
    while True:
        i = len(durations)
        seconds, outcome = execute(wl, bench, input_at(i), tracer, i)
        durations.append(seconds)
        outcomes.append(outcome)
        busy += seconds
        failed += bool(outcome.failures)
        if busy - probed >= 0.5:
            probe.sample()
            probed = busy
        # A program that fails at once would otherwise loop without bound.
        if (busy >= args.seconds and len(durations) >= wl.count_ops) or failed >= MAX_FAILED:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    samples: dict = {}
    for o in outcomes:
        for k, v in o.quality.items():
            samples.setdefault(k, []).extend(v)
    probe.sample()
    tail_s, tail_p = tail(durations)
    ops_per_s = len(durations) / busy
    raw = {
        "op_s_p50": statistics.median(durations),
        "op_s_tail": tail_s,
        "setup_s": statistics.median(s["import_s"] + s["build_s"] for s in setups),
    }
    scale = probe.scale()
    e2e = {
        "op_s_p50": raw["op_s_p50"] * scale,
        "op_s_tail": raw["op_s_tail"] * scale,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(
            (s["import_s"] + s["build_s"]) * SpeedProbe.REF_S / s["kernel_s"] for s in setups
        ),
    }
    checks = {
        "tail_percentile": tail_p,
        "tail_samples": len(durations),
        "ops_per_s": ops_per_s,
        "failed_share": failed / len(durations),
        "speed_scale": scale,
        "probe_s": probe.samples,
        "raw": raw,
    }
    per_layer = None
    if tracer:
        rerun = execute(wl, bench, input_at(0), tracer, "rerun")[1]
        tracer.uninstall()
        ops = set(range(len(durations)))
        per_layer = layer_metrics(tracer.spans, ops, set(range(wl.count_ops)))
        first = count_metrics(layer_metrics(tracer.spans, {0}, {0}))
        again = count_metrics(layer_metrics(tracer.spans, {"rerun"}, {"rerun"}))
        checks["transparent"] = reference.fingerprint == outcomes[0].fingerprint
        checks["repeats"] = rerun.fingerprint == outcomes[0].fingerprint
        checks["counts_not_repeating"] = {k: [first[k], again[k]] for k in first if first[k] != again[k]}
        per_layer.update(aggregate_quality(samples))
        per_layer["failed_share"] = checks["failed_share"]
        per_layer["trace.ops_per_s"] = ops_per_s
    return {
        "e2e": e2e,
        "per_layer": per_layer,
        "quality": aggregate_quality(samples),
        "checks": checks,
        "setups": setups,
        "ops": [
            {"seconds": d, "fingerprint": o.fingerprint, "failures": o.failures}
            for d, o in zip(durations, outcomes)
        ],
        "failed": failed,
        "spans": tracer.spans if tracer else [],
    }


def unit_of(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "1/s"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(("_s", "s_per_iter")) or name.startswith("op_s_"):
        return "s"
    if name.endswith(("share", "_rel", "_median", "_err", "_max")):
        return "ratio"
    return "count"


def write_outputs(args, res: dict, man: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {k: v for k, v in res.items() if k != "spans"}
    doc["manifest"] = man
    stem.with_suffix(".json").write_text(json.dumps(doc, indent=1, default=str))
    if res["spans"]:
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for s in res["spans"]:
                info = {k: v for k, v in s.info.items() if k != "result"}
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, info]) + "\n")


def report(args, wl, res: dict, man: dict) -> dict:
    """Print every metric with its unit; return the contract's result object."""
    print(f"# manifest {json.dumps(man)}")
    checks = res["checks"]
    print(f"# checks {json.dumps({k: v for k, v in checks.items() if k != 'probe_s'})}")
    for name, value in res["e2e"].items():
        note = ""
        if name in checks["raw"]:
            note = f"  (raw {checks['raw'][name]:.6g} s"
            note += ")" if name == "setup_s" else f", speed scale {checks['speed_scale']:.4g})"
        if name == "op_s_tail":
            note += f"  (p{checks['tail_percentile']} of {checks['tail_samples']} ops)"
        print(f"end_to_end {name} = {value:.6g} {unit_of(name)}{note}")
    # Printed but not bounded: a mean rate and a share that is usually 0.
    print(f"end_to_end ops_per_s = {checks['ops_per_s']:.6g} 1/s  (unbounded)")
    print(f"end_to_end failed_share = {checks['failed_share']:.6g} ratio  (unbounded)")
    for name in wl.quality:
        if name.startswith("cert") and args.workload == "compare" and not args.trace:
            print(f"quality {name} = n/a (read from synthesis results in the traced run)")
        else:
            print(f"quality {name} = {res['quality'][name]:.6g} {unit_of(name)}")
    if res["per_layer"]:
        for name, value in res["per_layer"].items():
            print(f"per_layer {name} = {value:.6g} {unit_of(name)}")
    metrics = res["per_layer"] if args.trace else res["e2e"]
    correct = res["failed"] == 0 and checks.get("transparent", True) and checks.get("repeats", True)
    return {
        "correct": bool(correct),
        "attempted": len(res["ops"]),
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def smoke(args) -> int:
    """One short op per workload, untraced and traced; names must match BENCHMARK.json."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    ok, attempted, failed = True, 0, 0
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        wl = WORKLOADS[name].smoke()
        for trace in (0, 1):
            run_args = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace, "seconds": 1e-9})
            res = run_workload(run_args, wl)
            got = set((res["per_layer"] if trace else res["e2e"]).keys())
            attempted += len(res["ops"])
            failed += res["failed"]
            good = got == want[trace] and res["failed"] == 0 and res["checks"].get("transparent", True)
            good = good and res["checks"].get("repeats", True)
            print(
                f"smoke {name} trace={trace}: {'ok' if good else 'FAIL'}"
                f" missing={sorted(want[trace] - got)} extra={sorted(got - want[trace])}"
                f" checks={json.dumps(res['checks'])}"
            )
            ok = ok and good
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ddsls" / "__init__.py").is_file():
        fail(f"no ddsls package under {ROOT / 'src'}; run from a full checkout")
    load_start = loadavg()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    ddsls_threads = os.environ.pop("DDSLS_THREADS", None)  # trial fan-out off
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

    import ddsls

    if Path(ddsls.__file__).resolve().parent != ROOT / "src" / "ddsls":
        fail(f"imported ddsls from {ddsls.__file__}, not from {ROOT / 'src'}")
    if args.smoke:
        return smoke(args)

    from workloads import WORKLOADS

    res = run_workload(args, WORKLOADS[args.workload])
    man = manifest(args, ddsls_threads, load_start)
    write_outputs(args, res, man)
    for i, op in enumerate(res["ops"]):
        for failure in op["failures"]:
            print(f"op {i} failed: {failure}", file=sys.stderr)
    print(json.dumps(report(args, WORKLOADS[args.workload], res, man)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
