"""Workload runners: inputs, the timed closed loop, output checks, tracing.

Each workload object builds its inputs from the seed, warms up, and runs a
closed loop with one client: the next op starts when the previous one has
returned.  Outputs are checked between batches, off the clock.  An untraced
run visits every input several times, spread over the run, and takes each
input's least time: the machine is shared, and other tenants slow single
visits by up to half.
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import inputs
import ops
import reference
import tracer as tracer_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 11     # fresh interpreters per run for setup_s; the median is reported
IMPORT_REPEATS = 5     # `python -X importtime` runs and bare starts per traced run
BATCH = 256            # in-process ops between two (untimed) check phases
MIN_PASSES = 2         # every input is timed at least this often in an untraced run
MAX_MEASURE_S = 120    # the loop stops here even before MIN_PASSES, for a very slow program
CLI_TRACE_CALLS = 30   # fixed CLI calls in a traced cli run
CLI_BARE_EVERY = 3     # one bare interpreter start after this many CLI calls
CHILD_TIMEOUT_S = 60
TAIL_LADDER = (99.99, 99.95, 99.9, 99.5, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
REF_EVERY = 128        # in-process ops between two timings of the reference work
# cli times are reported as if a bare start took this long: about its time on
# an idle 2-core Xeon with Python 3.11.
BARE_NOMINAL_NS = 73_000_000


class Failures:
    """Ops that failed: raised an ellab error, or returned an output that
    failed its check (`wrong`).  Reasons are counted for the results file."""

    def __init__(self):
        self.failed = 0
        self.wrong = 0
        self.reasons = Counter()

    def add(self, reason, wrong):
        self.failed += 1
        self.wrong += wrong
        self.reasons[reason] += 1


class Outputs:
    """Per-item output digests: a histogram over distinct items, a sha256 of
    all outputs in canonical item order, and a repeat check."""

    def __init__(self, total):
        self.total = total
        self.digests = {}
        self.outcomes = Counter()

    def record(self, index, outcome, text):
        digest = hashlib.sha256(text.encode()).digest()
        previous = self.digests.get(index)
        if previous is None:
            self.digests[index] = digest
            self.outcomes[outcome] += 1
            return True
        return previous == digest

    def summary(self):
        whole = hashlib.sha256()
        for index in sorted(self.digests):
            whole.update(self.digests[index])
        return {"outcomes": dict(sorted(self.outcomes.items())),
                "outputs_sha256": whole.hexdigest(),
                "items_covered": len(self.digests), "items_total": self.total}


# ------------------------------------------------------------------ helpers

def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("ELLAB_CATALOG", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, env):
    """Run a child to completion: (exit code, stdout, stderr, wall ns)."""
    start = time.perf_counter_ns()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for stream in (proc.stdout, proc.stderr):
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status = os.waitpid(proc.pid, 0)
    wall = time.perf_counter_ns() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    stdout = b"".join(chunks[out_fd]).decode(errors="replace")
    stderr = b"".join(chunks[err_fd]).decode(errors="replace")
    return proc.returncode, stdout, stderr, wall


def latency_summary(run, nominal_ns):
    """Latency metrics over the inputs, each at its least time in the run,
    scaled by nominal ÷ the reference time, with the unscaled values beside
    them.  The reference time is taken the same way as an input's: the
    least time per slot of the pass, then the median over slots."""
    reference = statistics.median(run.reference_best.values())
    scaled, details = _latency(run.best_ns.values(), nominal_ns / reference)
    raw, _ = _latency(run.best_ns.values(), 1.0)
    details.update(reference_ms=reference / 1e6, reference_slots=len(run.reference_best),
                   scale=nominal_ns / reference, unscaled=raw)
    return scaled, details


def _latency(best_ns, scale):
    values = sorted(ns * scale for ns in best_ns)
    n = len(values)
    for p in TAIL_LADDER:
        rank = max(1, -(-n * p // 100))
        if n - rank >= 10:
            break
    rank = int(rank)
    return {
        "ops_per_s": n / (sum(values) / 1e9),
        "latency_p50_ms": values[max(1, -(-n // 2)) - 1] / 1e6,
        "latency_tail_ms": values[rank - 1] / 1e6,
    }, {"percentile": p, "inputs": n, "inputs_beyond": n - rank}


class Run:
    """Timings and outputs of one measured loop."""

    def __init__(self, total):
        self.pass_length = total
        self.visits = 0
        self.busy_ns = 0
        self.best_ns = {}
        self.outputs = Outputs(total)
        self.failures = Failures()
        self.reference_best = {}
        self.verdicts = {}  # index -> the reason its output failed its check, or None
        self.started = time.monotonic()

    def timed(self, index, ns):
        self.visits += 1
        self.busy_ns += ns
        best = self.best_ns.get(index)
        if best is None or ns < best:
            self.best_ns[index] = ns

    def reference(self, ns, every):
        """A reference timing taken after `every` visits; its slot is its
        place in the pass."""
        slot = (self.visits % self.pass_length) // every
        best = self.reference_best.get(slot)
        if best is None or ns < best:
            self.reference_best[slot] = ns

    def going(self, seconds, count):
        """Until `count` visits; or until the ops' own time reaches `seconds`
        and every input was timed MIN_PASSES times."""
        if count is not None:
            return self.visits < count
        if time.monotonic() - self.started > MAX_MEASURE_S:
            return False
        return self.busy_ns < seconds * 1e9 or self.visits < MIN_PASSES * self.pass_length

    def raw(self):
        return {"visits": self.visits, "busy_s": self.busy_ns / 1e9,
                "raw_ops_per_s": self.visits / (self.busy_ns / 1e9)}


def _record_error(index, exc, run):
    name = type(exc).__name__
    run.failures.add(f"raised {name}", not isinstance(exc, ops.errors.EllabError))
    run.outputs.record(index, f"error:{name}", f"error: {name}: {exc}\n")


def _timed(op, indices, objects, run, tracer):
    """Run `op` on objects[i] for each index, timing each call; an exception
    becomes the result."""
    clock = time.perf_counter_ns
    results = []
    if tracer is not None:
        tracer.active = True
    for index in indices:
        if run.visits % REF_EVERY == 0:
            run.reference(reference.time_reference(), REF_EVERY)
        item = objects[index]
        start = clock()
        try:
            result = op(item)
        except Exception as exc:  # a failed op is counted and the run goes on
            result = exc
        run.timed(index, clock() - start)
        results.append(result)
    if tracer is not None:
        tracer.active = False
    return results


# ------------------------------------------------------- in-process workloads

class Sweep:
    """case_a / case_b: certify plus certificate_to_json on warm caches.

    An untraced run times a seeded share of the diagrams of every row pair,
    so that each is timed often enough for its least time to be free of
    interference from the rest of the machine; a traced run takes every
    diagram once.  Both go in seeded order."""

    op = staticmethod(ops.certify_op)

    def __init__(self, workload, seed, every):
        self.workload = workload
        self.items = inputs.case_a_items() if workload == "case_a" else inputs.case_b_items()
        if every:
            self.order = inputs.seeded_order(len(self.items), seed, workload)
        else:
            self.order = inputs.seeded_share(self.items, seed, workload, inputs.SWEEP_SHARE)
        self.diagrams = dict.fromkeys(self.order)
        for index in self.order:
            self.diagrams[index] = ops.build_diagram(self.items[index])
        self.rederive_default_ok = 0

    def first_item(self):
        return self.items[self.order[0]]

    def warm(self):
        """One op per distinct (left row, right row) pair fills every cache
        the sweep uses."""
        seen = set()
        for index in self.order:
            if self.items[index][:2] not in seen:
                seen.add(self.items[index][:2])
                ops.certify_op(self.diagrams[index])

    def _check(self, indices, results, run):
        kummer_kind = ops.correspondence.CertificateKind.RIGID_KUMMER
        for index, result in zip(indices, results):
            if isinstance(result, Exception):
                _record_error(index, result, run)
                continue
            cert, text = result
            outcome = "NotApplicable" if cert is None else str(cert.kind)
            if index in run.verdicts:  # checked on its first visit; counts on every visit
                reason = run.verdicts[index]
            else:
                reason = ops.check_certificate(self.workload, self.diagrams[index], cert, text)
                run.verdicts[index] = reason
                if reason is None and cert is not None and cert.kind is kummer_kind \
                        and ops.kummer_rederives(cert):
                    self.rederive_default_ok += 1
            if not run.outputs.record(index, outcome, text):
                reason = "output differs on repeat"
            if reason:
                run.failures.add(reason, True)

    def measure(self, op, seconds=None, count=None, tracer=None):
        run = Run(len(self.order))
        self.rederive_default_ok = 0
        n = len(self.order)
        while run.going(seconds, count):
            size = BATCH if count is None else min(BATCH, count - run.visits)
            indices = [self.order[(run.visits + k) % n] for k in range(size)]
            results = _timed(op, indices, self.diagrams, run, tracer)
            self._check(indices, results, run)
        return run

    def layer_counts(self, outputs):
        counts = {f"correspondence.outcome.{kind}": outputs.outcomes.get(kind, 0)
                  for kind in ("RigidProductPartner", "RigidKummer", "NotCertified",
                               "NotApplicable")}
        counts["kummer.rederive_default_ok"] = self.rederive_default_ok
        return counts


class Universe:
    """universe_cold: closure in both modes plus torsion_status for every
    composition, with every lru_cache cleared at the start of each pass.
    Each pass visits the compositions in the same seeded order, so an input
    meets the same cache state on every pass."""

    workload = "universe_cold"
    op = staticmethod(ops.universe_op)

    def __init__(self, seed):
        self.items = inputs.universe_items()
        self.order = inputs.seeded_order(len(self.items), seed, self.workload)
        self.configs = [ops.build_config(item) for item in self.items]
        self.caches = ops.lru_caches()
        self.caches_after_pass = {}

    def first_item(self):
        return self.items[self.order[0]]

    def warm(self):
        self.measure(ops.universe_op, count=len(self.items))

    def _check(self, results, run):
        for index, result in zip(self.order, results):
            if isinstance(result, Exception):
                _record_error(index, result, run)
                continue
            if index in run.verdicts:  # checked on its first visit; counts on every visit
                reason = run.verdicts[index]
            else:
                reason = run.verdicts[index] = ops.check_universe(self.configs[index], result)
            if not run.outputs.record(index, "ok", ops.universe_text(result)):
                reason = "output differs on repeat"
            if reason:
                run.failures.add(reason, True)

    def measure(self, op, seconds=None, count=None, tracer=None):
        """Whole passes; `count` must be a multiple of the pass length."""
        run = Run(len(self.items))
        while run.going(seconds, count):
            for cache in self.caches.values():
                cache.cache_clear()
            results = _timed(op, self.order, self.configs, run, tracer)
            self.caches_after_pass = cache_snapshot()
            self._check(results, run)
        return run


# ------------------------------------------------------------- cli workload

def bare_start_ms(env):
    """Wall time of a bare `python -c pass`."""
    code, _, err, wall = spawn([sys.executable, "-c", "pass"], env)
    if code != 0:
        raise RuntimeError(f"bare interpreter start exited {code}: {err.strip()[-500:]}")
    return wall / 1e6


def cli_launcher(argv):
    return [sys.executable, "-m", "ellab", *argv]


class TracedCli:
    """Launches `cli_child.py` in place of `python -m ellab` and sums the
    per-function and per-cache counters each child writes."""

    def __init__(self):
        self.path = RESULTS / f"cli-child-{os.getpid()}.json"
        self.functions = {}
        self.caches = Counter()

    def __call__(self, argv):
        return [sys.executable, str(HERE / "cli_child.py"), str(SRC), str(self.path), *argv]

    def collect(self):
        with open(self.path, encoding="utf-8") as handle:
            child = json.load(handle)
        self.path.unlink()
        for name, (calls, self_ns, observed) in child["functions"].items():
            c, s, o = self.functions.get(name, (0, 0, 0))
            self.functions[name] = (c + calls, s + self_ns, o + observed)
        for name, (hits, misses) in child["caches"].items():
            self.caches[f"{name}.hits"] += hits
            self.caches[f"{name}.misses"] += misses


class Cli:
    """cli: sequential `python -m ellab ...` children over CLI_ITEMS seeded
    commands, with bare interpreter starts interleaved so that machine-wide
    drift shows."""

    workload = "cli"

    def __init__(self, seed):
        self.env = child_env()
        self.commands = inputs.cli_commands(seed, inputs.CLI_ITEMS)
        self.documented = {argv: (code, out) for argv, code, out in inputs.DOCUMENTED}
        self.malformed = set(inputs.MALFORMED)
        self.expected = {}
        self.bare_ms = []

    def first_item(self):
        return list(self.commands[0])

    def warm(self):
        """Render every command in this process: the expected outputs."""
        self.expected = {argv: ops.cli_render(argv)[:2] for argv in self.commands}

    def check(self, argv, code, out, err):
        expected = self.expected[argv]
        if (code, out) != expected:
            return f"exit {code} and stdout differ from the in-process render"
        if argv in self.documented and (code, out) != self.documented[argv]:
            return "differs from the documented output"
        if argv in self.malformed and (code != 2 or out or not err):
            return "malformed input did not exit 2 with an error message"
        return None

    def measure(self, launcher, seconds=None, count=None, after_call=None):
        run = Run(len(self.commands))
        n = len(self.commands)
        while run.going(seconds, count):
            index = run.visits % n
            argv = self.commands[index]
            code, out, err, wall = spawn(launcher(argv), self.env)
            if after_call is not None:
                after_call()
            run.timed(index, wall)
            reason = self.check(argv, code, out, err)
            if not run.outputs.record(index, f"exit{code}", f"{code}\n{out}"):
                reason = reason or "output differs on repeat"
            if reason:
                run.failures.add(reason, True)
            if run.visits % CLI_BARE_EVERY == 0:
                self.bare_ms.append(bare_start_ms(self.env))
                run.reference(self.bare_ms[-1] * 1e6, CLI_BARE_EVERY)
        return run


def make_workload(name, seed, traced):
    if name in ("case_a", "case_b"):
        return Sweep(name, seed, every=traced)
    if name == "universe_cold":
        return Universe(seed)
    return Cli(seed)


# ------------------------------------------------------------------ runs

def cache_snapshot():
    return {name: tuple(cache.cache_info()[:2]) for name, cache in ops.lru_caches().items()}


def probe_seconds(workload_name, item):
    """(set-up seconds, least reference time in ns just before) of one probe."""
    code, out, err, _ = spawn(
        [sys.executable, str(HERE / "probe.py"), str(SRC), workload_name, item], child_env())
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}: {err.strip()[-500:]}")
    seconds, ref_ns = out.split()
    return float(seconds), float(ref_ns)


def footprint_kib(workload_name):
    """KiB of peak RSS that ellab adds to a fresh interpreter over a fixed
    pass of the workload (footprint.py)."""
    argv = [sys.executable, str(HERE / "footprint.py"), str(SRC), workload_name]
    if workload_name == "cli":
        argv.append(json.dumps(inputs.cli_commands(0, inputs.CLI_ITEMS)))
    code, out, err, _ = spawn(argv, child_env())
    if code != 0:
        raise RuntimeError(f"footprint probe exited {code}: {err.strip()[-500:]}")
    return int(out)


def untraced_run(workload, seconds):
    """End-to-end metrics: set-up and memory in fresh interpreters, then the
    timed loop."""
    item = json.dumps(workload.first_item())
    probes = [probe_seconds(workload.workload, item) for _ in range(SETUP_REPEATS)]
    setup = [seconds * reference.NOMINAL_NS / ref_ns for seconds, ref_ns in probes]
    footprint = footprint_kib(workload.workload)
    workload.warm()
    if isinstance(workload, Cli):
        run = workload.measure(cli_launcher, seconds=seconds)
    else:
        run = workload.measure(workload.op, seconds=seconds)
    nominal = BARE_NOMINAL_NS if isinstance(workload, Cli) else reference.NOMINAL_NS
    metrics, tail = latency_summary(run, nominal)
    metrics.update(setup_s=statistics.median(setup),
                   rss_added_mib=footprint / 1024,
                   success_ratio=(run.visits - run.failures.failed) / run.visits)
    details = {"tail": tail, "loop": run.raw(), "setup_samples_s": setup,
               "setup_unscaled_s": [seconds for seconds, _ in probes],
               "rss_added_kib": footprint}
    if isinstance(workload, Cli):
        details["bare_start_ms"] = workload.bare_ms
    return metrics, run, details


def import_times():
    """Median self time per ellab module over fresh `-X importtime` runs."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        code, _, err, _ = spawn(
            [sys.executable, "-X", "importtime", "-c", "import ellab.cli"], child_env())
        if code == 0:
            runs.append(tracer_mod.parse_importtime(err))
    modules = sorted({m for run in runs for m in run if m == "ellab" or m.startswith("ellab.")})
    out = {}
    for module in modules:
        label = "__init__" if module == "ellab" else module.split(".", 1)[1]
        out[f"import.ellab.{label}.self_ms"] = statistics.median(
            run.get(module, (0, 0))[0] for run in runs) / 1000
    out["import.ellab.cli.cumulative_ms"] = statistics.median(
        run.get("ellab.cli", (0, 0))[1] for run in runs) / 1000
    return out


def layer_metrics(functions, ops_count):
    out = {}
    for name, (calls, self_ns, _) in functions.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_us"] = self_ns / 1000 / ops_count
    calls, _, rigid = functions.get("kummer.kummer_rigidity", (0, 0, 0))
    out["kummer.rigid_ratio"] = rigid / calls if calls else 0.0
    return out


def traced_run(workload, spans_path):
    """Per-layer metrics from fixed work: a full sweep, one cold pass, or
    CLI_TRACE_CALLS calls.  The same work runs untraced first, which gives
    the tracing overhead."""
    layers = {}
    workload.warm()
    if isinstance(workload, Cli):
        plain = workload.measure(cli_launcher, count=CLI_TRACE_CALLS)
        traced = TracedCli()
        run = workload.measure(traced, count=CLI_TRACE_CALLS, after_call=traced.collect)
        layers |= layer_metrics(traced.functions, run.visits) | dict(traced.caches)
        bare_ms = workload.bare_ms
    else:
        count = len(workload.order)
        plain = workload.measure(workload.op, count=count)
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            traced_op = tracer.wrap(f"bench.{workload.workload}.op", workload.op)
            before = cache_snapshot()
            run = workload.measure(traced_op, count=count, tracer=tracer)
            after = cache_snapshot()
        finally:
            tracer.uninstall()
        if isinstance(workload, Universe):  # counters restart at each pass
            before, after = {}, workload.caches_after_pass
        for name, (hits, misses) in after.items():
            hits0, misses0 = before.get(name, (0, 0))
            layers[f"{name}.hits"] = hits - hits0
            layers[f"{name}.misses"] = misses - misses0
        layers |= layer_metrics(tracer.totals(), run.visits)
        if isinstance(workload, Sweep):
            layers |= workload.layer_counts(run.outputs)
        tracer.write_spans(spans_path)
        bare_ms = [bare_start_ms(child_env()) for _ in range(IMPORT_REPEATS)]
    if run.outputs.summary()["outputs_sha256"] != plain.outputs.summary()["outputs_sha256"]:
        run.failures.add("traced outputs differ from untraced outputs", True)
    layers["trace.overhead_ratio"] = run.busy_ns / plain.busy_ns
    layers["trace.ops"] = run.visits
    layers["cli.bare_start_ms"] = statistics.median(bare_ms)
    layers |= import_times()
    return layers, run, {"loop": run.raw(), "spans_file": spans_path.name}
