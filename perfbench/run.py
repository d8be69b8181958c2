"""dexretarget benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload traj10 --seed 7 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 12

``--workload all`` runs every workload untraced and then traced, each in
its own interpreter so each reports its own peak RSS.

Workloads (see ``record.json`` for why each was chosen):

* ``traj10``: the criterion-11 fixture and one drawn from the seed, each
  through ``dexretarget pipeline``.
* ``ingest60``: a 60-frame fixture through ``dexretarget calibrate``.
* ``retarget4x200``: four pre-aligned 200-frame demonstrations through
  ``retarget_trajectory`` and ``refine_contact``.

The fixture is generated from ``--seed`` in a separate interpreter; the
program only sees the files. One operation is one demonstration. Whole
rounds (one pass over the workload's demonstrations) run until
``--seconds`` have passed, and at least two, so every output can be
compared with a repeat of itself.

Seconds in the metrics are drift-corrected by the speed probe of
``speed.py``: wall time rescaled to a fixed machine speed, so that the
speed swings of a small shared machine do not read as regressions. The
human-readable report shows the uncorrected wall time beside each.

With ``--trace 0`` the run reports the end-to-end metrics, measured with no
hook installed. With ``--trace 1`` one untraced round is followed by two
traced rounds that give the per-layer metrics, the tracing overhead and
the hook self-checks. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and the metrics named in
BENCHMARK.json. Everything above it is the human-readable report; spans
and a summary go to ``.perfbench-out/<workload>/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from speed import SpeedProbe
from tracing import WORKLOADS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_PROBES = 3          # fresh interpreters per run; setup_s is their median
MIN_ROUNDS = 2            # so every output has a repeat to match
TRACED_ROUNDS = 2
COUNT_UNITS = ("count", "B", "ratio")  # per-layer metrics that must repeat exactly
PROBE_TIMEOUT_S = 60
FIXTURE_TIMEOUT_S = 120


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_package():
    """Import dexretarget from this checkout's src/, never from elsewhere."""
    if not (SRC / "dexretarget" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import dexretarget
    from dexretarget import alignment, cli, dataio, hand_model, pipeline, retarget, robot_model

    if Path(dexretarget.__file__).resolve().parent != (SRC / "dexretarget").resolve():
        return None
    return argparse.Namespace(
        cli=cli, pipeline=pipeline, dataio=dataio, alignment=alignment,
        hand_model=hand_model, retarget=retarget, robot_model=robot_model,
    )


def environment(numpy, scipy) -> dict:
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        threads = get()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_threads": threads}


def build_fixture(workload: str, seed: int, fixture: Path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "fixtures.py"), workload, str(seed), str(fixture)],
        env=env, capture_output=True, text=True, timeout=FIXTURE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"fixture generation failed: {proc.stderr.strip()}")


def measure_setup(urdf: Path, configs) -> list:
    """setup_s samples as (wall, corrected) pairs: import + parse_urdf +
    load_config, each in a fresh interpreter so nothing is cached
    in-process."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(urdf),
             *map(str, configs)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        wall, corrected = proc.stdout.split()
        samples.append((float(wall), float(corrected)))
    return samples


def run_rounds(wl, seconds: float, rounds_min: int, tracer=None, tag="u"):
    """Run whole rounds until ``seconds`` have passed (at least
    ``rounds_min``). Returns one record per operation."""
    records = []
    start = time.perf_counter()
    r = 0
    while r < rounds_min or time.perf_counter() - start < seconds:
        for demo in range(wl.n_demos):
            op = f"{tag}{r}.{demo}"
            if tracer is not None:
                tracer.op = op
            problems = []
            with SpeedProbe() as probe:
                t0 = time.perf_counter()
                try:
                    wl.execute(demo)
                except Exception as exc:  # the benchmark must survive a failing operation
                    problems.append(f"raised {type(exc).__name__}: {exc}")
                    traceback.print_exc()
                wall = time.perf_counter() - t0
            digest = None
            if not problems:
                try:
                    digest, problems = wl.check(demo)
                except Exception as exc:
                    traceback.print_exc()
                    problems.append(f"check raised {type(exc).__name__}: {exc}")
            records.append({"op": op, "round": r, "demo": demo, "wall": wall,
                            "corrected": wall * probe.factor(),
                            "digest": digest, "problems": problems,
                            "timings": None if problems else wl.timings(demo)})
        r += 1
    if tracer is not None:
        tracer.op = None
    return records


def mark_unrepeated(records):
    """An operation passes only if its output bytes match every repeat of
    the same demonstration."""
    by_demo = defaultdict(set)
    for rec in records:
        by_demo[rec["demo"]].add(rec["digest"])
    for rec in records:
        if len(by_demo[rec["demo"]]) > 1 and not rec["problems"]:
            rec["problems"].append("output differs from a repeat of the same demonstration")


def percentile_report(samples) -> str:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for p in (90.0, 99.0, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return f"n={n}; no percentile above p50 has 10 samples beyond it"
    value = statistics.quantiles(samples, n=1000, method="inclusive")[int(best * 10) - 1]
    return f"n={n}; p{best:g}={value:.6g} s"


def round_means(records, key) -> list:
    """Mean seconds per demonstration of each round. demo_s_p50 is their
    median: for one-demonstration workloads the median operation, and for
    retarget4x200 it weighs every grasp type equally instead of landing
    in the gap between the cheapest and the dearest ones."""
    rounds = defaultdict(list)
    for rec in records:
        rounds[rec["round"]].append(rec[key])
    return [statistics.fmean(v) for v in rounds.values()]


def per_round_counts(tracer, ops) -> dict:
    """Every deterministic count of one round: span calls per name plus the
    counts the hooks record."""
    out = defaultdict(float)
    for name, _, _, _, op in tracer.spans:
        if op in ops:
            out["calls:" + name] += 1
    for (op, key), value in tracer.counts.items():
        if op in ops:
            out[key] += value
    return dict(out)


def layer_metrics(tracer, records, untraced, rounds):
    """The per-layer table: counts and totals are per round (one pass over
    the workload's demonstrations); ``_p50`` and per-call figures say so."""
    ops = {rec["op"] for rec in records}
    table = tracer.span_table(ops)
    counts = per_round_counts(tracer, ops)

    def calls(name):
        return table.get(name, [0, 0.0, 0.0])[0] / rounds

    def ms(name, column=1):
        return 1e3 * table.get(name, [0, 0.0, 0.0])[column] / rounds

    def ms_per_call(name):
        row = table.get(name)
        return 1e3 * row[1] / row[0] if row else 0.0

    def p50_ms(name):
        durations = [t1 - t0 for n, t0, t1, _, op in tracer.spans if n == name and op in ops]
        return 1e3 * statistics.median(durations) if durations else 0.0

    readers = [n for n in table if n.startswith("dataio.read_")]
    read_s = sum(table[n][1] for n in readers)
    read_bytes = counts.get("dataio.read_bytes", 0.0)
    fk = ("robot_model.link_origins", "robot_model.link_origins_batch")
    fk_rows = counts.get("robot_model.fk_rows", 0.0) / rounds
    fk_s = sum(table.get(n, [0, 0.0])[1] for n in fk) / rounds
    m = {
        "dataio.read_pgm_mask_ms": ms_per_call("dataio.read_pgm_mask"),
        "dataio.read_pfm_depth_ms": ms_per_call("dataio.read_pfm_depth"),
        "dataio.read_ply_ms": ms_per_call("dataio.read_ply"),
        "dataio.read_bytes": read_bytes / rounds,
        "dataio.read_mb_per_s": read_bytes / 1e6 / read_s if read_s else 0.0,
        "dataio.write_robot_trajectory_ms": ms_per_call("dataio.write_robot_trajectory"),
        "geometry.splat_depth_calls": calls("geometry.splat_depth"),
        "geometry.splat_depth_ms": ms("geometry.splat_depth"),
        "geometry.backproject_depth_ms": ms("geometry.backproject_depth"),
        "geometry.weighted_umeyama_ms": ms("geometry.weighted_umeyama"),
        "pointcloud.build_index_calls": calls("pointcloud.build_index"),
        "pointcloud.build_index_ms": ms("pointcloud.build_index"),
        "pointcloud.estimate_normals_ms": ms("pointcloud.estimate_normals"),
        "alignment.align_hand_frame_ms_p50": p50_ms("alignment.align_hand_frame"),
        "alignment.depth_residual_calls": calls("alignment.smooth_depth_residuals"),
        "alignment.depth_residual_ms": ms("alignment.smooth_depth_residuals"),
        "alignment.outer_rounds": calls("alignment.alignment_problem"),
        "alignment.calibrate_ms": ms("alignment.calibrate_depth_sequence"),
    }
    for caller in ("align", "retarget"):
        name = f"solver.{caller}"
        solves = calls(name)
        m.update({
            f"{name}.solves": solves,
            f"{name}.iterations": counts.get(f"{name}.iterations", 0.0) / rounds,
            f"{name}.objective_evals": calls(f"{name}.objective"),
            f"{name}.gradient_evals": calls(f"{name}.gradient"),
            f"{name}.self_ms": ms(name, column=2),
            # vacuous 0 when the workload makes no solve of this kind
            f"{name}.converged_ratio":
                counts.get(f"{name}.converged", 0.0) / rounds / solves if solves else 0.0,
        })
    parse = "robot_model.parse_urdf"
    parse_rows = [t1 - t0 for n, t0, t1, _, _ in tracer.spans if n == parse]
    m.update({
        "robot_model.fk_calls": sum(calls(n) for n in fk),
        "robot_model.fk_rows": fk_rows,
        "robot_model.fk_us_per_row": 1e6 * fk_s / fk_rows if fk_rows else 0.0,
        # per call, setup included: retarget4x200 parses only at set-up
        "robot_model.parse_urdf_ms": 1e3 * statistics.mean(parse_rows) if parse_rows else 0.0,
        "retarget.retarget_frame_ms_p50": p50_ms("retarget.retarget_frame"),
        "retarget.refine_contact_ms": ms("retarget.refine_contact"),
        "retarget.refine_rounds": counts.get("retarget.refine_rounds", 0.0) / rounds,
        "retarget.refine_rollbacks": counts.get("retarget.refine_rollbacks", 0.0) / rounds,
    })
    stage_runs = [(rec["timings"], rec["wall"]) for rec in untraced if rec["timings"]]
    for stage in ("calibrate", "align", "retarget", "refine"):
        values = [t.get(stage, 0.0) for t, _ in stage_runs]
        m[f"pipeline.{stage}_s"] = statistics.median(values) if values else 0.0
    loads = [wall - sum(t.values()) for t, wall in stage_runs]
    m["pipeline.load_s"] = statistics.median(loads) if loads else 0.0
    return m, table


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced; non-zero if any run failed."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    m = load_package()
    if m is None:
        return fail(f"no dexretarget source under {SRC}; run from the root of a checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    record = json.loads((BENCH / "record.json").read_text())

    import numpy
    import scipy

    import workloads

    # warnings go to the real stderr, not to an operation's captured stream
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    fixture = work / "fixture"
    t0 = time.perf_counter()
    build_fixture(args.workload, args.seed, fixture)
    fixture_s = time.perf_counter() - t0

    wl = workloads.make(args.workload, fixture, m)
    setup_samples = measure_setup(fixture / "hand.urdf", wl.config_paths)
    tracer = Tracer(vars(m)) if args.trace else None
    if tracer is not None:
        tracer.op = "setup"
        tracer.install()
    wl.setup()
    if tracer is not None:
        tracer.uninstall()

    # a traced run needs only one untraced round: the overhead baseline and
    # the outputs the traced rounds must reproduce
    untraced = run_rounds(wl, 0.0, 1) if args.trace else run_rounds(wl, args.seconds, MIN_ROUNDS)
    mark_unrepeated(untraced)
    quality = wl.quality() if not untraced[-1]["problems"] else {}
    records = list(untraced)
    checks = []
    layers = demo_counts = None
    if tracer is not None:
        tracer.install()
        try:
            traced = run_rounds(wl, 0.0, TRACED_ROUNDS, tracer=tracer, tag="t")
        finally:
            tracer.uninstall()
        mark_unrepeated(traced)
        records += traced
        checks += tracer.check_hooks(args.workload)
        for demo in range(wl.n_demos):
            plain = {r["digest"] for r in untraced if r["demo"] == demo}
            seen = {r["digest"] for r in traced if r["demo"] == demo}
            if plain != seen:
                checks.append(f"tracing changed the output of demonstration {demo}")
        round_counts = [per_round_counts(tracer, {r["op"] for r in traced if r["round"] == k})
                        for k in range(TRACED_ROUNDS)]
        if any(c != round_counts[0] for c in round_counts[1:]):
            checks.append("deterministic counts differ between traced rounds")
        layers, table = layer_metrics(tracer, traced, untraced, TRACED_ROUNDS)
        # the deterministic counts of each demonstration, for the record
        count_names = [w["name"] for w in spec["per_layer"] if w["unit"] in COUNT_UNITS]
        demo_counts = []
        for demo in range(wl.n_demos):
            mine = layer_metrics(tracer, [r for r in traced if r["demo"] == demo],
                                 [r for r in untraced if r["demo"] == demo], TRACED_ROUNDS)[0]
            demo_counts.append({k: mine[k] for k in count_names})
        plain_p50 = statistics.median(round_means(untraced, "corrected"))
        traced_p50 = statistics.median(round_means(traced, "corrected"))
        layers["trace.overhead_s"] = traced_p50 - plain_p50
        layers["trace.overhead_pct"] = 100.0 * (traced_p50 - plain_p50) / plain_p50
        tracer.write(work / "spans.json")

    walls = [r["wall"] for r in untraced]
    times = [r["corrected"] for r in untraced]
    failed = sum(1 for r in records if r["problems"])
    e2e = {
        "demo_s_p50": statistics.median(round_means(untraced, "corrected")),
        "frames_per_s": wl.frames * len(times) / sum(times),
        "setup_s": statistics.median(c for _, c in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": failed / len(records),
        **quality,
    }
    units = {"demo_s_p50": "s", "frames_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
             "fail_ratio": "1", "calib_scale_err": "1", "align_icp_rms_mm": "mm",
             "retarget_vec_loss": "1", "refine_tip_err_mm": "mm"}
    ref = record["workloads"][args.workload]
    canonical = args.seed == record["canonical_seed"]

    env = environment(numpy, scipy)
    if env["openblas_threads"] is not None and env["openblas_threads"] > env["nproc"]:
        checks.append(f"OpenBLAS runs {env['openblas_threads']} threads on {env['nproc']} cores")

    # ---- human-readable report ------------------------------------------
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"fixture {fixture_s:.2f} s  env {json.dumps(env, sort_keys=True)}")
    print("end-to-end (tracing off):")
    for name, value in e2e.items():
        note = ""
        if name == "demo_s_p50":
            note = (f"median of round means; {percentile_report(times)}; uncorrected "
                    f"{statistics.median(round_means(untraced, 'wall')):.6g} s")
        elif name == "setup_s":
            note = (f"median of {len(setup_samples)} fresh interpreters; uncorrected "
                    f"{statistics.median(w for w, _ in setup_samples):.6g} s")
        elif name == "fail_ratio":
            note = f"{failed}/{len(records)} operations"
        elif canonical and name in ref.get("quality", {}):
            note = f"record {ref['quality'][name]:.6g}"
        print(f"  {name:<34}{value:>14.6g} {units[name]:<4} {note}")
    for demo in range(wl.n_demos):
        got = next((r["digest"] for r in untraced if r["demo"] == demo), None)
        note = ""
        if canonical:
            note = ("matches record" if got == ref["sha256"][demo]
                    else f"record {ref['sha256'][demo][:12]}")
        print(f"  output sha256 demo {demo}: {got}  {note}")
    if layers is not None:
        print(f"per-layer (traced run, {TRACED_ROUNDS} rounds; per round unless named per call):")
        for name, value in layers.items():
            print(f"  {name:<34}{value:>14.6g}")
        print("deterministic counts per demonstration (one round):")
        for name in demo_counts[0]:
            values = [c[name] for c in demo_counts]
            note = ""
            if canonical:
                recorded = [c[name] for c in ref["counts"]]
                note = "= record" if values == recorded else f"record {recorded}"
            print(f"  {name:<34}{' '.join(f'{v:>10g}' for v in values)}  {note}")
        print("spans (per round): name, calls, inclusive ms, self ms")
        for name, (n, incl, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
            print(f"  {name:<40}{n / TRACED_ROUNDS:>10g}{1e3 * incl / TRACED_ROUNDS:>12.2f}"
                  f"{1e3 * self_s / TRACED_ROUNDS:>12.2f}")
    for rec in records:
        for p in rec["problems"]:
            print(f"FAILED {rec['op']}: {p}")
    for c in checks:
        print(f"SELF-CHECK FAILED: {c}")

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "env": env, "end_to_end": e2e, "per_layer": layers, "demo_counts": demo_counts,
               "sha256": [next((r["digest"] for r in untraced if r["demo"] == d), None)
                          for d in range(wl.n_demos)],
               "op_walls": walls, "op_corrected": times, "setup_samples": setup_samples,
               "checks": checks}
    (work / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    shutil.rmtree(fixture, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    metrics = {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted}
    print(json.dumps({"correct": failed == 0 and not checks, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
