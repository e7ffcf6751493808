"""qwire benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload free-spectra --seed 1 --seconds 15 --trace 0

Run from the repository root; qwire is imported from ./src and nowhere else.
Every time it reports is in seconds at the reference speed of the host, as
measured by the calibration kernel timed around each operation and set-up
(calibration.py); fd-oracle has no kernel and reports wall seconds.  Wall
times are printed on the lines above the result.
With --trace 0 the run sets up SETUPS times (setup_s is their median), then
repeats whole rounds of the workload's operations for as long as the next
round would still end within --seconds, and prints the end-to-end metrics.
With --trace 1 it runs one round untraced, then sets up and runs one round
traced, prints the per-layer metrics with the tracing overhead and writes
the spans to perfbench/out/.
The last line of standard output is one JSON object.
"""

import os
import time

T_START = time.perf_counter()
NPROC = len(os.sched_getaffinity(0))
# cap the BLAS pool at the cores this process may use, before numpy loads it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from calibration import Calibration  # noqa: E402
from tracing import Tracer, purge_qwire  # noqa: E402
from workloads import CALIBRATION, WORKLOADS  # noqa: E402

SETUPS = 11


@dataclass
class Round:
    op_s: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)     # calibration kernel times
    scale: float = 1.0                               # wall seconds -> reference seconds
    verified: int = 0
    failures: list = field(default_factory=list)     # (op, message)
    peak_rss_mb: float = 0.0                         # high-water mark before the checks

    @property
    def solve_s(self) -> float:
        return sum(self.op_s)

    @property
    def ref_solve_s(self) -> float:
        return self.scale * self.solve_s


def load_qwire():
    if not (SRC / "qwire" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no qwire sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    purge_qwire()
    qw = importlib.import_module("qwire")
    if Path(qw.__file__).resolve().parent != (SRC / "qwire").resolve():
        raise SystemExit(f"run.py: qwire imported from {qw.__file__}, not {SRC}")
    return qw


def setup(workload: str, seed: int, out: Path, tracer: Tracer | None = None):
    """Import qwire afresh and generate the workload's inputs; returns (ops, wall seconds)."""
    t0 = time.perf_counter()
    qw = load_qwire()
    if tracer is not None:
        tracer.install(qw)
        tracer.op, tracer.on = "setup", True
    ops = WORKLOADS[workload](qw, np.random.default_rng(seed), out)
    if tracer is not None:
        tracer.on = False
    return ops, time.perf_counter() - t0


def run_round(ops, cal: Calibration, tracer: Tracer | None = None) -> Round:
    """Time every operation, with one calibration kernel before each and one
    after the last, then check them all (untimed, tracing off)."""
    rnd = Round()
    results: dict = {}
    errors: dict = {}
    for op in ops:
        rnd.kernel_s.append(cal.measure())
        if tracer is not None:
            tracer.op, tracer.on = op.name, True
        t0 = time.perf_counter()
        try:
            results[op.name] = op.run(results)
        except Exception as exc:  # a raising operation is a failed one; keep going
            errors[op.name] = exc
        rnd.op_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.on = False
    rnd.kernel_s.append(cal.measure())
    rnd.scale = cal.scale(rnd.kernel_s)
    rnd.peak_rss_mb = peak_rss_mb()
    for op in ops:
        err = errors.get(op.name)
        if err is None:
            try:
                rnd.verified += op.check(results[op.name], results)
            except Exception as exc:  # includes CheckFailed
                err = exc
        if err is not None:
            rnd.failures.append((op, f"{type(err).__name__}: {err}"))
    return rnd


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> dict:
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = HERE / "out"
    work = out / args.workload
    work.mkdir(parents=True, exist_ok=True)
    cal = Calibration(CALIBRATION[args.workload])
    setup_wall, setup_ref = [], []
    for _ in range(SETUPS):
        before = cal.measure()
        ops, dt = setup(args.workload, args.seed, work)
        setup_wall.append(dt)
        setup_ref.append(dt * cal.scale([before, cal.measure()]))
    first_op_s = time.perf_counter() - T_START

    rounds = []
    t_measure = time.perf_counter()
    if args.trace:
        rounds.append(run_round(ops, cal))
        tracer = Tracer()
        ops, _ = setup(args.workload, args.seed, work, tracer)
        traced = run_round(ops, cal, tracer)
        rounds.append(traced)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.metrics().items()}
        # in reference seconds, so that a change of the host's speed between
        # the two rounds does not read as overhead
        metrics["trace.solve_s"] = {"value": traced.ref_solve_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced.ref_solve_s - rounds[0].ref_solve_s,
                                       "unit": "s"}
        spans_path = out / f"spans-{args.workload}.jsonl"
        tracer.write(spans_path)
    else:
        # whole rounds, at least one, and none that would end past --seconds
        while True:
            rounds.append(run_round(ops, cal))
            elapsed = time.perf_counter() - t_measure
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        # every time in reference seconds (calibration.py)
        total_s = sum(r.ref_solve_s for r in rounds)
        metrics = {
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
            "solve_s": {"value": statistics.median(r.ref_solve_s for r in rounds), "unit": "s"},
            "eigs_per_s": {"value": sum(r.verified for r in rounds) / total_s, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(r.scale * t for r in rounds for t in r.op_s),
                         "unit": "s"},
            # the first round's, so memory taken by checks (the FD cross-check
            # of variable-spectra) is not counted
            "peak_rss_mb": {"value": rounds[0].peak_rss_mb, "unit": "MB"},
        }

    attempted = sum(len(r.op_s) for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    print("machine " + " ".join(f"{k}={v}" for k, v in machine().items()))
    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} "
          f"first_op_after_s {first_op_s:.3f}")
    print(f"wall time: setup median {statistics.median(setup_wall):.4f} s, "
          f"round median {statistics.median(r.solve_s for r in rounds):.4f} s; "
          f"reference seconds per wall second, median over rounds "
          f"{statistics.median(r.scale for r in rounds):.4f}")
    for op, msg in failures:
        tag = "known fault" if op.known_fault else "FAILED"
        print(f"{tag} {op.name}: {msg}")
    if args.trace:
        print(f"spans written to {spans_path.relative_to(HERE.parent)}")
    for i, op in enumerate(ops):
        print(f"op {op.name:28s} wall {statistics.median(r.op_s[i] for r in rounds):.4f} s  "
              f"reference {statistics.median(r.scale * r.op_s[i] for r in rounds):.4f} s")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    correct = all(op.known_fault for op, _ in failures)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
