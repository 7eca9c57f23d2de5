#!/usr/bin/env python3
"""End-to-end benchmark of DPCopula: CSV releases and a serve SAMPLE mix.

Run from the root of a checkout:

    python3 perfbench/run.py --workload release_census --seed 1 \
        --seconds 20 --trace 0

It builds perfbench_tool (Release) from the checkout's own sources, makes
the workload's inputs from --seed, measures for --seconds, checks every
output, and prints one JSON object as its last stdout line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 is the separate traced mode and reports the
per-layer metrics, writing the spans as a Chrome trace under .bench_out/.
Workloads, metrics and the steadiness rules are described in
perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("release_census", "release_wide", "serve_census")
# Distinct release seeds per run; rel_error averages their releases. Timed
# releases cycle through them and always run at least once more than the
# list is long, so at least one seed repeats (its digest must match).
RELEASE_SEEDS = 8
# The release seeds, like the query set and the serve fit seed, come from
# this constant; the workload seed drives the input table. Release noise,
# not the table, moves rel_error: on one census table four seed lists gave
# 0.183-0.202, while one seed list on four tables gave 0.200-0.203.
RELEASE_SEED_BASE = 20140324
SETUP_REPEATS = 7
TRACED_REPEATS = 3
# Traced mode: PINGs per connection, and the closed loop's length when a
# release workload serves its own model.
PINGS = 200
TRACED_SERVE_SECONDS = 3
# The served model's DP noise is fixed by a constant fit seed, like the
# query set: serve_census scores the model the mix samples from, and one
# fit's noise would otherwise swing rel_error by a quarter between seeds.
# The workload seed still drives the fitted table and every request seed.
FIT_SEED = RELEASE_SEED_BASE
PROC_TIMEOUT_S = 150
MASK64 = (1 << 64) - 1

PER_LAYER_UNITS = {
    "data.read_csv_s": "s",
    "data.write_csv_s": "s",
    "data.read_mb_per_s": "MB/s",
    "data.write_mb_per_s": "MB/s",
    "core.synthesize_s": "s",
    "core.cpu_per_wall": "ratio",
    "core.hybrid_overhead_s": "s",
    "core.partitions": "count",
    "core.rss_growth_mb": "MB",
    "marginals.publish_s": "s",
    "marginals.dct_terms": "count",
    "copula.estimate_s": "s",
    "stats.rank_cache_s": "s",
    "stats.tau_pairs_s": "s",
    "copula.estimate_self_s": "s",
    "copula.tau_pairs": "count",
    "copula.rows_used": "count",
    "copula.repaired": "count",
    "copula.sample_s": "s",
    "copula.sample_rows_per_s": "rows/s",
    "copula.plan_build_us": "us",
    "serve.parse_us": "us",
    "serve.registry_get_us": "us",
    "serve.ledger_charge_us": "us",
    "serve.ledger_persist_us": "us",
    "serve.ping_rtt_us": "us",
    "serve.render_small_us": "us",
    "serve.render_bulk_us": "us",
    "serve.response_bytes_small": "bytes",
    "serve.response_bytes_bulk": "bytes",
    "serve.wait_small_us": "us",
    "serve.wait_bulk_us": "us",
    "serve.latency_p99_ms": "ms",
    "serve.bulk_p99_ms": "ms",
    "serve.small_samples": "count",
    "serve.bulk_samples": "count",
    "serve.requests": "count",
    "serve.errors": "count",
    "serve.busy_rejections": "count",
    "serve.budget_rejections": "count",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}
# Printed beside the metrics when a workload measures them; not metrics.
DIAGNOSTICS = {
    # serve_census: rows received over the whole measured phase per second,
    # every stall included. rows_per_s is the typical cycle's rate instead.
    "total_rows_per_s": "rows/s",
}
END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "bulk_p50_ms": "ms",
    "rows_per_s": "rows/s",
    "rel_error": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def derive_seed(seed, stream):
    """splitmix64 of (seed, stream), the same mix perfbench_tool uses."""
    z = (seed + 0x9E3779B97F4A7C15 * (stream + 1)) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) >> 1


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_quiet(cmd, timeout):
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=timeout)
    if done.returncode != 0:
        log(done.stdout.decode(errors="replace")[-4000:])
        raise BenchError("command failed: " + " ".join(cmd))


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("no dpcopula sources next to perfbench/")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    if not (build_dir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_quiet(["cmake", "--build", str(build_dir), "--target",
               "perfbench_tool", "-j", "4"], timeout=800)
    return build_dir / "perfbench_tool", build_dir


class Tool:
    """Runs perfbench_tool subcommands, one fresh process each."""

    def __init__(self, binary, work):
        self.binary = binary
        self.work = work
        self.count = 0

    def run(self, sub, **flags):
        """Returns the step's JSON plus its outside wall time (_wall_s) and
        the kernel's peak RSS of that process (_rss_mb, from wait4)."""
        self.count += 1
        stem = self.work / f"{self.count:03d}-{sub}"
        cmd = [str(self.binary), sub]
        for key, value in flags.items():
            cmd += ["--" + key.replace("_", "-"), str(value)]
        with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(PROC_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        result = last_json(Path(f"{stem}.out").read_text(errors="replace"))
        result["_wall_s"] = wall
        result["_rss_mb"] = usage.ru_maxrss / 1024.0
        if proc.returncode != 0 or not result.get("ok"):
            err_tail = Path(f"{stem}.err").read_text(errors="replace")[-600:]
            result["ok"] = False
            result["error"] = (f"{sub} exited {proc.returncode}: "
                               f"{result.get('error', '')} {err_tail}").strip()
        return result

    def need(self, sub, **flags):
        result = self.run(sub, **flags)
        if not result["ok"]:
            raise BenchError(result["error"])
        return result


def last_json(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                break
    return {"ok": False, "error": "no JSON result"}


class Server:
    """The serving process: daemon defaults, one model, a fresh in-memory
    ledger."""

    def __init__(self, binary, work, model):
        self.err = open(work / f"server-{time.monotonic_ns()}.err", "wb")
        self.proc = subprocess.Popen(
            [str(binary), "server", "--model", str(model)], cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self.err)
        line = self._readline(30)
        if not line.startswith("PORT "):
            self.stop()
            raise BenchError("server did not start: " + line)
        self.port = int(line.split()[1])

    def _readline(self, timeout):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        return self.proc.stdout.readline().decode().strip() if ready else ""

    def stop(self):
        """Stops the server; returns its stats and peak RSS (from wait4)."""
        if self.proc.returncode is not None:
            return {"ok": False}
        try:
            self.proc.stdin.write(b"STOP\n")
            self.proc.stdin.close()
        except OSError:
            pass
        timer = threading.Timer(30, self.proc.kill)
        timer.start()
        try:
            out = self.proc.stdout.read().decode(errors="replace")
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.err.close()
        stats = last_json(out)
        stats["_rss_mb"] = usage.ru_maxrss / 1024.0
        stats["ok"] = bool(stats.get("ok")) and self.proc.returncode == 0
        return stats


def first_sample(port, seed):
    """One SAMPLE answered end to end: the last step of serve set-up."""
    request = f"SAMPLE model setup 0 100 {seed} csv\n".encode()
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        conn.sendall(request)
        reply = b""
        while not reply.endswith(b"\nEND\n"):
            chunk = conn.recv(65536)
            if not chunk or reply.startswith(b"ERR"):
                raise BenchError("first SAMPLE failed: " + reply[:80].decode())
            reply += chunk
    if not reply.startswith(b"OK SAMPLE 100 8 csv\n"):
        raise BenchError("first SAMPLE malformed")


# ---- Host fingerprint and drift probe ------------------------------------


def fingerprint(build_dir, work):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    fs = "unknown"
    best = ""
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            parts = line.split()
            if len(parts) > 2 and str(work).startswith(parts[1]) and \
                    len(parts[1]) >= len(best):
                best, fs = parts[1], parts[2]
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    if commit == "unknown":
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]:
            if path.is_file():
                digest.update(path.read_bytes())
        commit = "src-sha256:" + digest.hexdigest()[:16]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "workdir": f"{work} ({fs}; the checkout's own filesystem)",
        "commit": commit,
        "python": platform.python_version(),
    }


# ---- Release workloads -----------------------------------------------------


def gen_input(tool, workload, seed, path):
    return tool.need("gen", workload=workload, seed=seed, out=path)


def release_seeds():
    return [derive_seed(RELEASE_SEED_BASE, 1 + k) for k in range(RELEASE_SEEDS)]


def run_release(tool, work, workload, seed, seconds):
    inp = work / "input.csv"
    setup, digests = [], set()
    for _ in range(SETUP_REPEATS):
        setup.append(gen_input(tool, workload, seed, inp)["_wall_s"])
        digests.add(sha256(inp))
    attempted, failed, errors = 0, 0, []
    if len(digests) != 1:
        failed += 1
        errors.append("input generation is not deterministic")
    seeds = release_seeds()
    first = {}  # seed index -> (digest, rows, path)
    walls, rss, rates = [], [], []
    start = time.perf_counter()
    i = 0
    while i <= RELEASE_SEEDS or time.perf_counter() - start < seconds:
        k = i % RELEASE_SEEDS
        i += 1
        out = work / (f"out-{k}.csv" if k not in first else "repeat.csv")
        attempted += 1
        r = tool.run("release", input=inp, output=out, seed=seeds[k])
        if not r["ok"]:
            failed += 1
            errors.append(r["error"])
            continue
        digest = sha256(out)
        if k in first and digest != first[k][0]:
            failed += 1
            errors.append(f"release seed {seeds[k]} repeated with a different output")
            continue
        first.setdefault(k, (digest, r["rows"], out))
        walls.append(r["_wall_s"])
        rss.append(r["_rss_mb"])
        rates.append(r["rows"] / r["_wall_s"])
    rel_error = 0.0
    if first:
        keys = sorted(first)
        check = tool.run("check", workload=workload, original=inp,
                         outputs=",".join(str(first[k][2]) for k in keys),
                         rows=",".join(str(first[k][1]) for k in keys))
        if not check["ok"]:
            failed += max(1, int(check.get("failed", 1)))
            errors.append(check["error"])
        rel_error = check.get("rel_error", 0.0)
    if len(first) < RELEASE_SEEDS:
        errors.append("not every release seed produced an output")
    latency_ms = statistics.median(walls) * 1000.0 if walls else 0.0
    metrics = {
        "latency_p50_ms": latency_ms,
        # A release is one bulk operation: the same median as latency_p50_ms.
        "bulk_p50_ms": latency_ms,
        "rows_per_s": statistics.median(rates) if rates else 0.0,
        "rel_error": rel_error,
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
        "setup_s": statistics.median(setup),
    }
    return attempted, failed, errors, metrics


def run_release_traced(tool, work, workload, seed, frags):
    inp = work / "input.csv"
    gen_input(tool, workload, seed, inp)
    seed0 = release_seeds()[0]
    attempted, failed, errors = 0, 0, []
    untraced, traced, digests = [], [], set()
    for rep in range(TRACED_REPEATS):
        order = (False, True) if rep % 2 == 0 else (True, False)
        for with_trace in order:
            out = work / f"traced-{rep}-{int(with_trace)}.csv"
            flags = dict(input=inp, output=out, seed=seed0)
            if with_trace:
                frag = work / f"frag-release-{rep}.json"
                flags.update(trace_out=frag, op=f"release-{rep}")
            attempted += 1
            r = tool.run("release", **flags)
            if not r["ok"]:
                failed += 1
                errors.append(r["error"])
                continue
            digests.add(sha256(out))
            if with_trace:
                frags.append(frag)
                traced.append(r)
            else:
                untraced.append(r["_wall_s"])
    if len(digests) > 1:
        failed += 1
        errors.append("one release seed gave different outputs")
    if not traced or not untraced:
        raise BenchError("no traced release completed: " + "; ".join(errors))
    model = work / "released.model"
    layers = whole_table_layers(tool, work, inp, seed0, frags, model)

    # The model fitted on the whole table, served for a short closed loop:
    # the serve layers on this workload's model shape.
    load, stats, replay, ok = serve_model(tool, work, model, seed,
                                          TRACED_SERVE_SECONDS, frags)
    attempted += ok[0]
    failed += ok[1]
    errors += ok[2]

    def med(key):
        return statistics.median(r[key] for r in traced)

    synth_s = med("synth_s")
    metrics = layer_metrics(layers)
    metrics.update(serve_metrics(load, stats, replay))
    metrics.update({
        "data.read_csv_s": med("read_s"),
        "data.write_csv_s": med("write_s"),
        "data.read_mb_per_s": statistics.median(
            r["in_bytes"] / 1e6 / r["read_s"] for r in traced),
        "data.write_mb_per_s": statistics.median(
            r["out_bytes"] / 1e6 / r["write_s"] for r in traced),
        "core.synthesize_s": synth_s,
        "core.cpu_per_wall": statistics.median(
            r["cpu_s"] / r["synth_s"] / r["threads"] for r in traced),
        "core.hybrid_overhead_s": synth_s - plain_synth_s(tool, inp, seed0),
        "core.partitions": traced[0]["partitions"],
        "core.rss_growth_mb": statistics.median(
            r["rss_peak_mb"] - r["rss_before_mb"] for r in traced),
        "trace.overhead": statistics.median(r["_wall_s"] for r in traced) /
        statistics.median(untraced) - 1.0,
        "trace.coverage": coverage(traced + [layers, replay]),
    })
    return attempted, failed, errors, metrics


def whole_table_layers(tool, work, inp, seed, frags, model_out=None):
    """The lower layers on the whole table, in a fresh process (traced)."""
    frag = work / "frag-layers.json"
    flags = dict(input=inp, seed=seed, trace_out=frag, op="layers")
    if model_out is not None:
        flags["model_out"] = model_out
    layers = tool.need("layers", **flags)
    frags.append(frag)
    return layers


def plain_synth_s(tool, inp, seed):
    """Median time of plain core::Synthesize on `inp`, fresh processes."""
    return statistics.median(
        tool.need("synth-plain", input=inp, seed=seed)["synth_s"]
        for _ in range(TRACED_REPEATS))


def layer_metrics(layers):
    """Per-layer metrics of the whole-table breakdown (the `layers` step)."""
    return {
        "marginals.publish_s": layers["publish_s"],
        "marginals.dct_terms": layers["dct_terms"],
        "copula.estimate_s": layers["estimate_s"],
        "stats.rank_cache_s": layers["rank_cache_s"],
        "stats.tau_pairs_s": layers["tau_pairs_s"],
        "copula.estimate_self_s": layers["estimate_s"] -
        layers["rank_cache_s"] - layers["tau_pairs_s"],
        "copula.tau_pairs": layers["tau_pairs"],
        "copula.rows_used": layers["rows_used"],
        "copula.repaired": layers["repaired"],
        "copula.sample_s": layers["sample_s"],
        "copula.sample_rows_per_s": layers["sample_rows"] / layers["sample_s"],
        "copula.plan_build_us": layers["plan_build_s"] * 1e6,
    }


def coverage(results):
    child = sum(r.get("span_child_ns", 0) for r in results)
    parent = sum(r.get("span_parent_ns", 0) for r in results)
    return child / parent if parent else 0.0


# ---- Serve workload -----------------------------------------------------------


def serve_setup(tool, work, seed, index, trace_frag=None):
    """Generate, fit (the CLI's --model-out path), start the server with a
    fresh ledger, answer one SAMPLE. Returns (server, seconds, fit, paths)."""
    d = work / f"setup-{index}"
    d.mkdir()
    inp, model = d / "input.csv", d / "census.model"
    start = time.perf_counter()
    gen = gen_input(tool, "serve_census", seed, inp)
    flags = dict(input=inp, model=model, seed=FIT_SEED)
    if trace_frag is not None:
        flags["trace_out"] = trace_frag
    fit = tool.need("fit", **flags)
    server = Server(tool.binary, work, model)
    try:
        first_sample(server.port, derive_seed(seed, 20))
    except (BenchError, OSError) as e:
        server.stop()
        raise BenchError(str(e))
    elapsed = time.perf_counter() - start
    fit["gen"] = gen
    return server, elapsed, fit, (inp, model)


def run_load(tool, server, model, seed, seconds, pings, served_before,
             original=None):
    """The closed-loop mix against a running server that has answered
    `served_before` requests; the server is then stopped. Returns (load,
    stats, (attempted, failed, errors))."""
    try:
        flags = dict(port=server.port, model=model, seed=seed,
                     seconds=seconds, pings=pings)
        if original is not None:
            flags["original"] = original
        load = tool.run("load", **flags)
    finally:
        stats = server.stop()
    if not load["ok"]:
        raise BenchError(load["error"])
    failed, errors = load["failed"], []
    if load["error"]:
        errors.append(load["error"])
    if not stats.get("ok"):
        failed += 1
        errors.append("server did not stop cleanly")
    bad = stats.get("errors", 1) + stats.get("budget_rejections", 1) + \
        stats.get("busy_rejections", 1)
    if bad:
        failed += bad
        errors.append(f"server counted {bad} errors or rejections")
    if stats.get("requests") != load["attempted"] + served_before + 2 * pings:
        failed += 1
        errors.append("server request count does not match the load")
    return load, stats, (load["attempted"], failed, errors)


def serve_model(tool, work, model, seed, seconds, frags, server=None,
                served_before=0):
    """The serve layers on `model`: a live closed loop with PINGs (on
    `server`, or on a fresh one), then the in-process replay of the mix."""
    if server is None:
        server = Server(tool.binary, work, model)
    load, stats, ok = run_load(tool, server, model, seed, seconds, PINGS,
                               served_before)
    replay_frag = work / "frag-replay.json"
    replay = tool.need("serve-layers", model=model,
                       ledger=work / "replay.ledger", seed=seed,
                       trace_out=replay_frag)
    frags.append(replay_frag)
    return load, stats, replay, ok


def serve_metrics(load, stats, replay):
    return {
        "serve.parse_us": replay["parse_us"],
        "serve.registry_get_us": replay["registry_get_us"],
        "serve.ledger_charge_us": replay["ledger_charge_us"],
        "serve.ledger_persist_us": replay["ledger_persist_us"],
        "serve.ping_rtt_us": load["ping_p50_us"],
        "serve.render_small_us": replay["render_small_us"],
        "serve.render_bulk_us": replay["render_bulk_us"],
        "serve.response_bytes_small": replay["bytes_small"],
        "serve.response_bytes_bulk": replay["bytes_bulk"],
        "serve.wait_small_us": load["small_p50_ms"] * 1000.0 -
        replay["service_small_us"],
        "serve.wait_bulk_us": load["bulk_p50_ms"] * 1000.0 -
        replay["service_bulk_us"],
        "serve.latency_p99_ms": load["small_p99_ms"],
        "serve.bulk_p99_ms": load["bulk_p99_ms"],
        "serve.small_samples": load["small_count"],
        "serve.bulk_samples": load["bulk_count"],
        "serve.requests": stats["requests"],
        "serve.errors": stats["errors"],
        "serve.busy_rejections": stats["busy_rejections"],
        "serve.budget_rejections": stats["budget_rejections"],
    }


def run_serve(tool, work, seed, seconds):
    setups, digests, server = [], set(), None
    try:
        for k in range(SETUP_REPEATS):
            server, elapsed, _, (inp, model) = serve_setup(tool, work, seed, k)
            setups.append(elapsed)
            digests.add(sha256(model))
            if k + 1 < SETUP_REPEATS:
                server.stop()
    except BaseException:
        if server is not None:
            server.stop()
        raise
    load, stats, (attempted, failed, errors) = run_load(
        tool, server, model, seed, seconds, 0, 1, original=inp)
    attempted += len(setups)  # Each set-up answered one SAMPLE.
    if len(digests) != 1:
        failed += 1
        errors.append("the model fit is not deterministic")
    metrics = {
        "latency_p50_ms": load["small_p50_ms"],
        "bulk_p50_ms": load["bulk_p50_ms"],
        "rows_per_s": load["rows_per_s"],
        "rel_error": load["rel_error"],
        "peak_rss_mb": stats["_rss_mb"],
        "setup_s": statistics.median(setups),
        "total_rows_per_s": load["total_rows_per_s"],
    }
    return attempted, failed, errors, metrics


def run_serve_traced(tool, work, seed, seconds, frags):
    fit_frag = work / "frag-fit.json"
    server, _, fit, (inp, model) = serve_setup(tool, work, seed, 0, fit_frag)
    frags.append(fit_frag)
    load, stats, replay, (attempted, failed, errors) = serve_model(
        tool, work, model, seed, seconds, frags, server, served_before=1)
    attempted += 1  # The set-up SAMPLE.
    layers = whole_table_layers(tool, work, inp, FIT_SEED, frags)
    # Alg. 6 on the fitted table, for what hybrid would add there (the fit
    # itself is the non-hybrid --model-out path).
    hybrid = [tool.need("release", input=inp, output=work / "hybrid.csv",
                        seed=FIT_SEED) for _ in range(TRACED_REPEATS)]
    gen = fit["gen"]
    metrics = layer_metrics(layers)
    metrics.update(serve_metrics(load, stats, replay))
    metrics.update({
        "data.read_csv_s": fit["read_s"],
        "data.write_csv_s": gen["write_s"],
        "data.read_mb_per_s": fit["in_bytes"] / 1e6 / fit["read_s"],
        "data.write_mb_per_s": gen["bytes"] / 1e6 / gen["write_s"],
        "core.synthesize_s": fit["synth_s"],
        "core.cpu_per_wall": fit["cpu_s"] / fit["synth_s"] / fit["threads"],
        "core.hybrid_overhead_s":
        statistics.median(r["synth_s"] for r in hybrid) -
        plain_synth_s(tool, inp, FIT_SEED),
        "core.partitions": hybrid[0]["partitions"],
        "core.rss_growth_mb": fit["rss_peak_mb"] - fit["rss_before_mb"],
        "copula.sample_s": replay["sample_bulk_us"] * 1e-6,
        "copula.sample_rows_per_s": 20000 / (replay["sample_bulk_us"] * 1e-6),
        "copula.plan_build_us": replay["plan_build_us"],
        "trace.overhead": replay["traced_pass_s"] / replay["untraced_pass_s"] - 1.0,
        "trace.coverage": coverage([fit, layers, replay]),
    })
    return attempted, failed, errors, metrics


# ---- Main ----------------------------------------------------------------------


def write_chrome_trace(frags, path):
    events = [f.read_text().strip() for f in frags if f.is_file()]
    path.parent.mkdir(exist_ok=True)
    path.write_text("[\n" + ",\n".join(e for e in events if e) + "\n]\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seed = args.seed & MASK64

    try:
        binary, build_dir = build()
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    work = ROOT / ".bench_work" / f"{args.workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tool = Tool(binary, work)
    frags = []
    try:
        host = fingerprint(build_dir, work)
        probe = tool.need("probe")["probe_s"]
        if args.workload == "serve_census" and args.trace == 1:
            result = run_serve_traced(tool, work, seed, args.seconds, frags)
        elif args.workload == "serve_census":
            result = run_serve(tool, work, seed, args.seconds)
        elif args.trace == 1:
            result = run_release_traced(tool, work, args.workload, seed, frags)
        else:
            result = run_release(tool, work, args.workload, seed, args.seconds)
        trace_path = ROOT / ".bench_out" / f"{args.workload}-seed{seed}.trace.json"
        if frags:
            write_chrome_trace(frags, trace_path)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {args.workload} failed: {e!r}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, errors, metrics = result

    print(f"# host: {json.dumps(host)}")
    print(f"# drift probe: {probe:.4f} s (fixed floating-point loop; "
          "a host diagnostic, not a metric)")
    if frags:
        print(f"# chrome trace: {trace_path.relative_to(ROOT)}")
    for message in errors:
        print(f"# error: {message}")
    units = PER_LAYER_UNITS if args.trace == 1 else END_TO_END_UNITS
    for name in units:
        print(f"# {name} = {metrics[name]:.6g} {units[name]}")
    for name, unit in DIAGNOSTICS.items():
        if name in metrics and args.trace == 0:
            print(f"# {name} = {metrics[name]:.6g} {unit} (a diagnostic, "
                  "not a metric)")
    print(f"# attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
