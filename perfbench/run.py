"""kummerlab benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the root of a kummerlab checkout:

    python3 perfbench/run.py --workload {reproduce,factorize,charsum} \\
        --seed N --seconds S --trace {0,1}

The library is imported from the checkout's ``src`` directory; nothing is
installed.  Each workload runs in fresh worker processes (``worker.py``),
one after another, with ``KUMMERLAB_THREADS`` removed from their
environment.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit and sample count, and every failed
operation.

--trace 0  set up SETUP_SAMPLES times, run the workload ROUNDS times
           untraced and report the end-to-end metrics of BENCHMARK.json.
           Operation latencies and the failed ratio are printed too.
--trace 1  run the workload untraced, then traced by ``tracer.py``, check
           that both produce the same output digest, and report the
           per-layer metrics of BENCHMARK.json, the tracing overhead
           among them.

Outputs are also checked across runs: the digest of a workload's results
is stored per (workload, seed, seconds, source tree) under ``out/`` and
must not change between runs of the same source.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gauge import REFERENCE_S, block_time

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 9
# Fresh worker processes per --trace 0 run, each on the same inputs sized
# for --seconds / ROUNDS.  cal_wall_s is the median round and each
# operation's latency its median round.  The claim suite is one
# indivisible round.
ROUNDS = {"reproduce": 1, "factorize": 3, "charsum": 3}
DEADLINE_S = 170.0  # the whole run, all worker processes included
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it


class BenchError(Exception):
    pass


def _declared(root: Path):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _source_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.pop("KUMMERLAB_THREADS", None)
        self.env["PYTHONPATH"] = str(root / "src")

    def spawn(self, trace: int = 0, setup_only: bool = False) -> tuple[dict, bytes]:
        """Run one worker process to completion; returns (report, stdout)."""
        a = self.args
        report = OUT / f"report-{os.getpid()}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds / ROUNDS[a.workload]), "--trace", str(trace),
            "--report", str(report),
        ]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--spans", str(OUT / f"trace-{a.workload}-{a.seed}.json")]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s budget: {cmd}")
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}: {cmd}")
        try:
            rep = json.loads(report.read_text())
        finally:
            report.unlink(missing_ok=True)
        rep["setup_s"] = rep["ready"] - spawned
        return rep, stdout

    def run_once(self, trace: int) -> dict:
        """One untraced or traced run, with its failures and digest."""
        rep, stdout = self.spawn(trace=trace)
        if self.args.workload != "reproduce":
            expected = set(rep["expected_failures"])
            rep["defects"] = [f for f in rep["failures"] if f["kind"] not in expected]
            rep["attempted"] = len(rep["latencies"])
            return rep
        if not trace:
            rep["digest"] = hashlib.sha256(stdout).hexdigest()
            claims = json.loads(stdout)["result"]["claims"]
            rep["statuses"] = {c["claim"]: c["status"] for c in claims}
        rep["failures"] = [
            {"op": claim, "kind": status, "detail": "claim did not pass"}
            for claim, status in rep["statuses"].items()
            if status != "pass"
        ]
        if rep["exit_code"] != 0:
            rep["failures"].append(
                {"op": "cli", "kind": "exit", "detail": f"exit code {rep['exit_code']}"}
            )
        rep["defects"] = list(rep["failures"])
        rep["attempted"] = len(rep["statuses"])
        return rep

    def digest_is_stable(self, digest: str) -> bool:
        """Compare with, or record, the digest of earlier runs of this source."""
        a = self.args
        key = f"{a.workload}/{_source_hash(self.root)}"
        if a.workload != "reproduce":
            key += f"/seed={a.seed}/seconds={a.seconds}"
        store = OUT / "digests.json"
        known = json.loads(store.read_text()) if store.exists() else {}
        if key in known:
            return known[key] == digest
        known[key] = digest
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(store)
        return True


def _latency_metrics(latencies: list[float]) -> dict:
    """Median and tail of per-operation latencies, in ms."""
    lat = sorted(latencies)
    n = len(lat)
    idx = max(0, n - 1 - TAIL_BEYOND)
    return {
        "op_p50_ms": (statistics.median(lat) * 1000, "ms", f"median of n={n}"),
        "op_tail_ms": (
            lat[idx] * 1000,
            "ms",
            f"p{100 * (idx + 1) / n:.2f} of n={n}, {n - 1 - idx} samples beyond",
        ),
    }


def _setup_sample(runner: Runner) -> float:
    """Set-up time of one fresh process, scaled by the machine's speed
    measured in this process just before and just after it."""
    before = block_time()
    raw = runner.spawn(setup_only=True)[0]["setup_s"]
    return raw * REFERENCE_S / ((before + block_time()) / 2)


def end_to_end(runner: Runner) -> tuple[dict, dict, dict]:
    setups = [_setup_sample(runner) for _ in range(SETUP_SAMPLES)]
    rounds = [runner.run_once(trace=0) for _ in range(ROUNDS[runner.args.workload])]
    rep = rounds[0]
    for other in rounds[1:]:
        rep["failures"] += other["failures"]
        rep["defects"] += other["defects"]
        if other["digest"] != rep["digest"]:
            rep["defects"].append(
                {"op": "digest", "kind": "drift", "detail": "fresh processes disagree on the output"}
            )
    k = len(rounds)
    n = rep["attempted"]
    rep["attempted"] = n * k
    cal_wall = statistics.median(r["cal_wall_s"] for r in rounds)
    wall = statistics.median(r["wall_s"] for r in rounds)
    per_op = [statistics.median(lat) for lat in zip(*(r["latencies"] for r in rounds))]
    metrics = {
        "setup_s": (statistics.median(setups), f"median of {SETUP_SAMPLES} fresh processes, scaled"),
        "cal_wall_s": (cal_wall, f"median of {k} closed-loop streams of {n} ops, scaled"),
        "cal_ops_per_s": (n / cal_wall, f"{n} ops / cal_wall_s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "largest worker process",
        ),
    }
    failed = len(rep["failures"])
    info = {
        "wall_s": (wall, "s", f"median of {k} streams, unscaled"),
        "ops_per_s": (n / wall, "1/s", f"{n} ops / wall_s"),
        "machine_speed": (
            statistics.median(r["speed"] for r in rounds), "", "reference block speed, build machine = 1"
        ),
        **_latency_metrics(per_op),
        "failed_ratio": (failed / (n * k), "", f"{failed} of {n * k} ops"),
    }
    return rep, metrics, info


def per_layer(runner: Runner, declared: dict) -> tuple[dict, dict, dict]:
    plain = runner.run_once(trace=0)
    traced = runner.run_once(trace=1)
    traced["defects"] += plain["defects"]
    if plain["digest"] != traced["digest"]:
        traced["defects"].append(
            {"op": "digest", "kind": "trace", "detail": "traced and untraced outputs differ"}
        )
    metrics = {name: (value, "traced run") for name, (value, _) in traced["layers"].items()}
    # Metric names may not hold "/", so claim "a/b" reports as claim.a.b.wall_s.
    claim_wall = {
        f"claim.{claim.replace('/', '.')}.wall_s": wall
        for claim, wall in traced.get("claim_wall_s", {}).items()
    }
    for name in declared:
        if name.startswith("claim."):
            metrics[name] = (claim_wall.get(name, 0.0), "traced run")
    metrics["trace.overhead_s"] = (
        traced["wall_s"] - plain["wall_s"],
        f"traced {traced['wall_s']:.3f} s - untraced {plain['wall_s']:.3f} s",
    )
    return traced, metrics, {}


def main() -> int:
    parser = argparse.ArgumentParser(description="kummerlab benchmark")
    parser.add_argument("--workload", required=True, choices=["reproduce", "factorize", "charsum"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "kummerlab" / "__init__.py").is_file():
        print(f"error: {root} is not a kummerlab checkout (no src/kummerlab)", file=sys.stderr)
        return 2
    e2e_units, layer_units = _declared(root)
    OUT.mkdir(exist_ok=True)
    runner = Runner(root, args)
    try:
        if args.trace:
            rep, metrics, info = per_layer(runner, layer_units)
            units = layer_units
        else:
            rep, metrics, info = end_to_end(runner)
            units = e2e_units
        stable = runner.digest_is_stable(rep["digest"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 1
    if not stable:
        rep["defects"].append(
            {"op": "digest", "kind": "drift", "detail": "output differs from an earlier run of this source"}
        )

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name in sorted(metrics):
        value, detail = metrics[name]
        print(f"  {name:<48} {value:>14.6g} {units[name]:<6} ({detail})")
    # Printed, not declared: see README.md, "End-to-end metrics".
    for name, (value, unit, detail) in info.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<6} ({detail})")
    for f in rep["failures"] + [d for d in rep["defects"] if d not in rep["failures"]]:
        print(f"  failed op {f['op']}: {f['kind']}: {f['detail'][:200]}")
    result = {
        "correct": not rep["defects"],
        "attempted": rep["attempted"],
        "failed": len(rep["failures"]),
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]} for name in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
