"""Benchmark of the liminfdim package, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
One closed-loop client issues operations one after another in this process,
with no extra threads.  Every output is checked by an independent oracle in
the benchmark's own code (``correct`` turns false on any mismatch).

--trace 0  sets the workload up, then runs operations for S seconds, at
           least long enough for ten samples beyond p90 and up to a whole
           round of the workload's mix, and prints the end-to-end metrics.
           Further set-ups, spread over the run, take a tenth of its time;
           ``setup_s`` is the median of all set-ups.  A reference kernel
           runs before every operation and set-up, and every time is
           reported at the kernel's reference speed (see ``speed.py``).
--trace 1  records spans around the package's public entry points over
           set-up plus a fixed window of operations, writes them to
           ``.perfbench/trace-<workload>.csv.gz``, runs as many operations
           again untraced to measure the tracing overhead, and prints the
           per-layer metrics, each per operation of the window.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status 2 means
the benchmark could not run (for example, no package source in the checkout).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time

from common import WORK_DIR, Mismatch, as_metrics, import_library, load_spec
from speed import REFERENCE_S, SpeedLog

SETUP_SHARE = 0.1          # share of a timed run spent on further set-ups
MIN_SAMPLES = 110          # leaves at least 10 samples beyond p90
HARD_LIMIT_S = 150.0       # stop adding samples past this, whatever the count


def load_workloads() -> dict:
    from bracket_highprec import BracketHighprec
    from cantor_certificate import CantorCertificate
    from cli_reports import CliReports
    from enumerate_d2 import EnumerateD2
    return {wl.name: wl for wl in (EnumerateD2(), BracketHighprec(),
                                   CantorCertificate(), CliReports())}


class Outcomes:
    """Attempted, failed and mismatched operations, with first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.messages: dict[str, int] = {}
        self.bits: list[float] = []

    def note(self, kind: str, exc: BaseException) -> None:
        msg = f"{kind}: {type(exc).__name__}: {str(exc)[:160]}"
        self.messages[msg] = self.messages.get(msg, 0) + 1

    def one(self, wl, lib, state, i: int, quiet_err, tracer=None) -> tuple[bool, float]:
        """Run operation i (timed) and check it (untimed); (ok, seconds).

        With a tracer, spans are recorded inside the operation only.
        """
        wl.before_op(state, i)
        self.attempted += 1
        if tracer is not None:
            tracer.op = i + 1
            tracer.enabled = True
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(quiet_err):
                out = wl.run_op(lib, state, i)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # an operation that raises is a failed operation
            elapsed = time.perf_counter() - start
            self.failed += 1
            self.note("raised", exc)
            return False, elapsed
        finally:
            if tracer is not None:
                tracer.enabled = False
            quiet_err.seek(0)
            quiet_err.truncate()
        try:
            self.bits.extend(wl.check(lib, state, i, out))
        except (Mismatch, AssertionError) as exc:
            self.failed += 1
            self.mismatched += 1
            self.note("oracle mismatch", exc)
            return False, elapsed
        return True, elapsed

    def summary(self) -> dict:
        return {"correct": self.mismatched == 0, "attempted": self.attempted,
                "failed": self.failed}


def rank_of(q: float, n: int) -> int:
    """1-based nearest rank of the q-quantile among n samples."""
    return max(1, math.ceil(q * n))


def set_up(wl, seed: int, tiny: bool, workdir) -> tuple[object, dict, float]:
    """Import the package afresh and prepare the workload: (lib, state, seconds)."""
    start = time.perf_counter()
    lib = import_library()
    wl.attach(lib)
    state = wl.prepare(lib, seed, tiny, workdir)
    return lib, state, time.perf_counter() - start


def measure(wl, spec, seed: int, seconds: int, tiny: bool, workdir) -> tuple[dict, Outcomes]:
    speed = SpeedLog()
    pos = speed.mark()
    lib, state, first = set_up(wl, seed, tiny, workdir)
    setups = [(pos, first)]
    wl.oracle_setup(state)

    outcomes = Outcomes()
    quiet = io.StringIO()
    min_samples = 5 if tiny else MIN_SAMPLES
    timed: list[tuple[int, float, bool]] = []   # (kernel sample, seconds, ok) per operation
    setup_total = first
    t0 = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter() - t0
        if ((now >= seconds and outcomes.attempted - outcomes.failed >= min_samples and i % wl.round_ops == 0)
                or now >= HARD_LIMIT_S):
            break
        pos = speed.mark()
        if setup_total < SETUP_SHARE * now:
            # a further set-up, its state thrown away; spread over the run,
            # the set-ups meet the same drift in machine speed as the operations
            elapsed = set_up(wl, seed, tiny, workdir / "spare")[2]
            setups.append((pos, elapsed))
            setup_total += elapsed
            gc.collect()   # frees the discarded modules, so peak RSS does not grow with the count
            continue
        ok, elapsed = outcomes.one(wl, lib, state, i, quiet)
        timed.append((pos, elapsed, ok))
        i += 1

    def timings(scaled: bool) -> dict:
        def seconds_of(pos, t):
            return t * speed.scale(pos) if scaled else t
        busy = sum(seconds_of(p, t) for p, t, _ in timed)
        lat = sorted(seconds_of(p, t) for p, t, ok in timed if ok)
        p50 = statistics.median(lat) if lat else float("nan")
        p90 = lat[rank_of(0.9, len(lat)) - 1] if lat else float("nan")
        return {"setup_s": statistics.median(seconds_of(p, t) for p, t in setups),
                "throughput_ops_s": len(lat) / busy if busy else 0.0,
                "latency_p50_ms": p50 * 1e3, "latency_p90_ms": p90 * 1e3}

    values = timings(scaled=True)
    values.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (outcomes.attempted - outcomes.failed) / max(1, outcomes.attempted),
        "cert_bits_min": min(outcomes.bits) if outcomes.bits else 0.0,
    })
    completed = outcomes.attempted - outcomes.failed
    beyond = completed - rank_of(0.9, completed)
    print(f"# {wl.name}: {completed} completed operations timed, {beyond} beyond p90; "
          f"{outcomes.attempted} attempted, {outcomes.failed} failed; "
          f"set-ups timed: {len(setups)}")
    print(f"# reference kernel: median {speed.median_s() * 1e3:.3f} ms over "
          f"{len(speed.samples)} samples, {REFERENCE_S * 1e3:g} ms at the reference speed")
    raw = timings(scaled=False)
    print("# unscaled wall times: " + ", ".join(f"{k} = {v!r}" for k, v in raw.items()))
    return as_metrics(values, spec["end_to_end"]), outcomes


def trace(wl, spec, seed: int, tiny: bool, workdir) -> tuple[dict, Outcomes]:
    from tracer import Tracer

    lib = import_library()
    wl.attach(lib)
    tracer = Tracer(lib)
    tracer.install()
    tracer.op = 0                      # set-up spans carry operation id 0
    state = wl.prepare(lib, seed, tiny, workdir)
    tracer.enabled = False
    wl.oracle_setup(state)

    outcomes = Outcomes()
    quiet = io.StringIO()
    window = state["window"]
    traced = 0.0
    for i in range(window):
        _, elapsed = outcomes.one(wl, lib, state, i, quiet, tracer)
        traced += elapsed
    tracer.uninstall()
    plain = 0.0
    for i in range(window, 2 * window):
        _, elapsed = outcomes.one(wl, lib, state, i, quiet)
        plain += elapsed
    overhead = traced / plain - 1.0 if plain else 0.0

    path = WORK_DIR / f"trace-{wl.name}.csv.gz"
    spans = tracer.write(path)
    print(f"# {wl.name}: {window} traced operations, {spans} spans written to "
          f"{path.relative_to(WORK_DIR.parent)}; {window} untraced operations for the overhead")
    values = tracer.metrics(window, overhead)
    return as_metrics(values, spec["per_layer"]), outcomes


def main(argv=None) -> int:
    try:
        workloads = load_workloads()
    except ImportError as exc:  # the oracles need mpmath
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and windows, for the self-check")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    wl = workloads[args.workload]
    spec = load_spec()

    workdir = WORK_DIR / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, outcomes = trace(wl, spec, args.seed, args.tiny, workdir)
        else:
            metrics, outcomes = measure(wl, spec, args.seed, args.seconds, args.tiny, workdir)
    except ImportError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg, count in sorted(outcomes.messages.items()):
        print(f"# {count} x {msg}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    result = outcomes.summary()
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
