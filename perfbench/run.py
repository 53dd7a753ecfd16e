"""Decode benchmark for marscache.

Usage (from the repository root):

    python3 perfbench/run.py --workload toy-208 --seed 42 --seconds 40 --trace 0

The benchmark decodes one workload with all three engines (``vanilla``,
``dual_cache`` and ``mars`` = presets ``table10-pyramid`` + ``table8-best``)
and checks every decode. It measures only from outside the program, through
the public calls ``init_weights``, ``make_workload``, ``merge_presets`` /
``engine_params_from_dict``, ``make_engine``, ``decode`` and
``attention_cost``; weights and inputs come from ``--seed`` alone.

Load model: decoding is offline, so the load is a closed loop from one
process -- one client, one decode at a time, no arrival schedule. OpenBLAS
is pinned to one thread, because the engine's speed claims are single-thread.

``--trace 0`` prints the end-to-end metrics (untraced decodes only);
``--trace 1`` wraps the program's public functions at their module bindings
and prints the per-layer metrics plus the tracing overhead. The last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the full report (environment stamp, sample counts, checks, spans) is written
to ``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import os

# Must precede the first NumPy import, which fixes the BLAS thread pool.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH_DIR))

from tracing import StepSpan, Tracer, summarize  # noqa: E402


@dataclass(frozen=True)
class Spec:
    """Layout and decode schedule of one workload (default 8-layer model)."""

    num_frames: int
    patches_per_frame: int
    prompt_length: int
    generation_length: int
    block_length: int
    num_steps: int
    tokens_per_step: int = 2


WORKLOADS = {
    # L=208, V=128: per-call overhead dominates; the acceptance workload.
    "toy-208": Spec(8, 16, 16, 64, 32, 32),
    # L=592, V=512: full forwards and chunked visual refreshes dominate.
    "video-592": Spec(16, 32, 16, 64, 32, 32),
    # L=224, V=64, 4 blocks: text-dominated, the cache is rewritten often.
    "long-response": Spec(4, 16, 32, 128, 32, 64),
}

# Entry totals pinned by the acceptance suite. They depend only on the layout
# and the attention plan, so they hold on every seed.
ENTRY_PINS = {
    "toy-208": {"vanilla": 11_075_584, "dual_cache": 2_289_664, "mars": 2_216_480},
}

ENGINES = ("vanilla", "dual_cache", "mars")
MARS_PRESETS = ("table10-pyramid", "table8-best")
SETUP_REPEATS = 15
# A p90 is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
# Vanilla costs 5-9x a cached decode; cap its share of the measuring time so
# the cached engines still get several decodes per run.
VANILLA_SHARE = 0.4
MIN_OVERHEAD_PAIRS = 3


def load_program() -> SimpleNamespace:
    """Import marscache from the checkout's ``src`` directory."""
    src = ROOT / "src"
    if not (src / "marscache" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: marscache sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from marscache import analysis, diffusion, engines, model, presets, workload

    return SimpleNamespace(
        analysis=analysis, diffusion=diffusion, engines=engines,
        model=model, presets=presets, workload=workload,
    )


# -----------------------------------------------------------------------------
# Set-up, decoding and checks
# -----------------------------------------------------------------------------

@dataclass
class Setup:
    model_cfg: object
    layout: object
    decode_cfg: object
    weights: object
    work: object
    params: dict


def set_up(p, spec: Spec, seed: int) -> Setup:
    """Weights, inputs and engine parameters; builds (and drops) one session
    per engine so that ``make_engine`` is part of the set-up cost."""
    model_cfg = p.model.ModelConfig()
    layout = p.workload.default_layout(
        spec.num_frames, spec.patches_per_frame, spec.prompt_length,
        spec.generation_length, spec.block_length, model_cfg.vocab_size,
    )
    decode_cfg = p.diffusion.DecodeConfig(
        generation_length=spec.generation_length, num_steps=spec.num_steps,
        block_length=spec.block_length, tokens_per_step=spec.tokens_per_step,
    )
    weights = p.model.init_weights(model_cfg, seed)
    work = p.workload.make_workload(layout, model_cfg, seed)
    params = {
        "vanilla": p.presets.engine_params_from_dict({"engine_kind": "vanilla"}),
        "dual_cache": p.presets.engine_params_from_dict({"engine_kind": "dual_cache"}),
        "mars": p.presets.engine_params_from_dict(p.presets.merge_presets(MARS_PRESETS)),
    }
    su = Setup(model_cfg, layout, decode_cfg, weights, work, params)
    for engine in ENGINES:
        new_session(p, su, engine)
    return su


def new_session(p, su: Setup, engine: str):
    return p.engines.make_engine(
        su.params[engine], su.weights, su.layout,
        su.work.visual_embeddings, su.work.prompt_tokens,
    )


@dataclass
class Decode:
    engine: str
    tokens: np.ndarray
    trace: object
    wall_s: float
    step_s: list[float]  # wall time per step, observer to observer


def run_decode(p, su: Setup, engine: str, tracer: Tracer | None = None) -> Decode:
    session = new_session(p, su, engine)
    if tracer is not None:
        session = StepSpan(session, tracer)
    stamps = []

    def observer(record, _session):
        stamps.append(time.perf_counter_ns())

    start = time.perf_counter_ns()
    tokens, trace = p.diffusion.decode(session, su.layout, su.decode_cfg, observer=observer)
    end = time.perf_counter_ns()
    edges = [start] + stamps
    steps = [(b - a) / 1e9 for a, b in zip(edges, edges[1:])]
    return Decode(engine, tokens, trace, (end - start) / 1e9, steps)


def check_decode(p, su: Setup, workload: str, d: Decode, reference) -> list[str]:
    """Output checks for one decode; returns the failed ones."""
    problems = []
    lay = su.layout
    toks = d.tokens
    if (toks.shape != (lay.generation_length,) or np.any(toks == lay.mask_token_id)
            or np.any(toks < 0) or np.any(toks >= su.model_cfg.vocab_size)):
        problems.append("response holds masks or out-of-range tokens")
    if not d.trace.steps or d.trace.steps[-1].masked_remaining != 0:
        problems.append("trace ends with masks left")
    try:
        p.analysis.attention_cost(
            su.params[d.engine], su.model_cfg, lay, su.decode_cfg, trace=d.trace
        )
    except ValueError as e:
        problems.append(f"attention_cost rejected the trace: {e}")
    if reference is not None and not np.array_equal(toks, reference):
        problems.append("tokens differ from the run's first decode of this engine")
    pin = ENTRY_PINS.get(workload, {}).get(d.engine)
    if pin is not None and d.trace.total_entries() != pin:
        problems.append(f"total entries {d.trace.total_entries()} != pinned {pin}")
    return problems


@dataclass
class Runner:
    """Decodes, checks and counts operations for one workload and seed."""

    p: SimpleNamespace
    su: Setup
    workload: str
    attempted: dict = field(default_factory=lambda: {e: 0 for e in ENGINES})
    failed: dict = field(default_factory=lambda: {e: 0 for e in ENGINES})
    problems: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)

    def decode(self, engine: str, tracer: Tracer | None = None) -> Decode | None:
        self.attempted[engine] += 1
        try:
            d = run_decode(self.p, self.su, engine, tracer)
        except Exception:  # a failed decode is a failed operation, not a crash
            self.failed[engine] += 1
            self.problems.append({"engine": engine, "error": traceback.format_exc()})
            return None
        problems = check_decode(self.p, self.su, self.workload, d,
                                self.reference.get(engine))
        self.reference.setdefault(engine, d.tokens)
        if problems:
            self.failed[engine] += 1
            self.problems.append({"engine": engine, "checks": problems})
            return None
        return d


# -----------------------------------------------------------------------------
# Step classification and statistics
# -----------------------------------------------------------------------------

def is_refresh(record) -> bool:
    return record.step >= 2 and bool(record.refreshed_visual or record.refreshed_text)


def steady_steps(d: Decode) -> list[float]:
    return [s for s, rec in zip(d.step_s, d.trace.steps)
            if rec.step >= 2 and not is_refresh(rec)]


def refresh_sum(d: Decode) -> float:
    return sum(s for s, rec in zip(d.step_s, d.trace.steps) if is_refresh(rec))


def tokens_per_s(d: Decode) -> float:
    return len(d.tokens) / d.wall_s


def p90(samples: list[float]) -> float:
    if len(samples) < TAIL_SAMPLES * 10:
        raise ValueError(f"p90 needs {TAIL_SAMPLES * 10} samples, got {len(samples)}")
    return statistics.quantiles(samples, n=10)[8]


def agreement(a, b) -> float:
    return float(np.mean(a == b))


# -----------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# -----------------------------------------------------------------------------

def measure_setup(p, spec: Spec, seed: int) -> tuple[Setup, list[float]]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        su = set_up(p, spec, seed)
        times.append(time.perf_counter() - start)
    return su, times


def run_untraced(p, workload: str, seed: int, seconds: float):
    spec = WORKLOADS[workload]
    rss_base_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    su, setup_times = measure_setup(p, spec, seed)
    r = Runner(p, su, workload)
    deadline = time.perf_counter() + seconds
    budget_vanilla = VANILLA_SHARE * seconds

    # Untimed warm-up: fills the allocator's pools and any lazy state; its
    # tokens become the mars reference like any first decode.
    warm = r.decode("mars")
    last = {"mars": warm.wall_s if warm else 0.0}
    runs = {e: [] for e in ENGINES}

    def needed(e):
        if e == "mars":
            return sum(len(steady_steps(d)) for d in runs[e]) < TAIL_SAMPLES * 10
        return not runs[e]

    def fits(e):
        if e not in last:
            return True
        if e == "vanilla" and sum(d.wall_s for d in runs[e]) + last[e] > budget_vanilla:
            return False
        return time.perf_counter() + last[e] <= deadline

    # Round-robin until no engine's next decode fits before the deadline; an
    # engine whose decode fails is not decoded again.
    broken = set()
    while True:
        progressed = False
        for e in ENGINES:
            if e not in broken and (needed(e) or fits(e)):
                d = r.decode(e)
                if d is None:
                    broken.add(e)
                    continue
                runs[e].append(d)
                last[e] = d.wall_s
                progressed = True
        if not progressed:
            break
    if any(not runs[e] for e in ENGINES) or needed("mars"):
        raise SystemExit(f"perfbench: decodes failed: {json.dumps(r.problems)}")

    rss_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    mars, dual = runs["mars"], runs["dual_cache"]
    mars_steady = [s for d in mars for s in steady_steps(d)]
    dual_steady = [s for d in dual for s in steady_steps(d)]
    med = statistics.median
    metrics = {
        "setup_s": (med(setup_times), "s"),
        "peak_rss_mb": ((rss_peak_kb - rss_base_kb) * 1024 / 1e6, "MB"),
        "vanilla.tokens_per_s": (med(tokens_per_s(d) for d in runs["vanilla"]), "tok/s"),
        "dual_cache.tokens_per_s": (med(tokens_per_s(d) for d in dual), "tok/s"),
        "mars.tokens_per_s": (med(tokens_per_s(d) for d in mars), "tok/s"),
        "mars.first_step_ms": (med(d.step_s[0] for d in mars) * 1e3, "ms"),
        "mars.steady_step_ms.p50": (med(mars_steady) * 1e3, "ms"),
        "mars.steady_step_ms.p90": (p90(mars_steady) * 1e3, "ms"),
        "mars.refresh_ms": (med(refresh_sum(d) for d in mars) * 1e3, "ms"),
        "dual_cache.steady_step_ms.p50": (med(dual_steady) * 1e3, "ms"),
        "dual_cache.refresh_ms": (med(refresh_sum(d) for d in dual) * 1e3, "ms"),
    }
    # Agreement is a property of the seed's inputs, not of the run: it is
    # printed here and reported as a per-layer metric by the traced run.
    extra = {
        f"{e}.agreement_vs_vanilla": (
            agreement(runs[e][0].tokens, runs["vanilla"][0].tokens), "fraction")
        for e in ("mars", "dual_cache")
    }
    samples = {
        "setup": len(setup_times),
        "decodes": {e: len(runs[e]) for e in ENGINES},
        "warm_up_decodes": {"mars": 1},
        "mars.steady_steps": len(mars_steady),
        "dual_cache.steady_steps": len(dual_steady),
        "decode_wall_s": {e: [d.wall_s for d in runs[e]] for e in ENGINES},
    }
    return r, metrics, extra, samples, {}


# -----------------------------------------------------------------------------
# Traced run: per-layer metrics
# -----------------------------------------------------------------------------

def layer_metrics(su: Setup, engine: str, spans: list, d: Decode) -> dict:
    s = summarize(spans, engine)

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    cfg, lay = su.model_cfg, su.layout
    steps = d.trace.steps
    entries = sum(rec.attention_entries for rec in steps)
    rows = d.trace.total_rows_recomputed()
    useful = cfg.num_heads * entries
    scores = get("model.multi_head_attention", "work")
    m = {
        "model.forward.s": (get("model.forward", "s"), "s"),
        "model.forward.calls": (get("model.forward", "calls"), "count"),
        "model.gelu.s": (get("model.gelu", "s"), "s"),
        "model.gelu.elements": (get("model.gelu", "work"), "count"),
        "model.multi_head_attention.s": (get("model.multi_head_attention", "s"), "s"),
        "model.multi_head_attention.scores": (scores, "count"),
        "core.softmax_rows.s": (get("core.softmax_rows", "s"), "s"),
        "model.rms_norm.s": (get("model.rms_norm", "s"), "s"),
        "model.apply_rotary.s": (get("model.apply_rotary", "s"), "s"),
        "diffusion.assemble_embeddings.s": (get("diffusion.assemble_embeddings", "s"), "s"),
        "diffusion.assemble_embeddings.calls": (
            get("diffusion.assemble_embeddings", "calls"), "count"),
        "diffusion.select_unmask.s": (get("diffusion.select_unmask", "s"), "s"),
        # Decode-loop time outside the engine: commit selection included.
        "diffusion.decode.self_s": (
            get("diffusion.decode", "s") - get("engines.step", "s"), "s"),
        "engines.step.s": (get("engines.step", "s"), "s"),
        "engines.step.self_s": (get("engines.step", "self_s"), "s"),
        "engines.make_engine.s": (get("engines.make_engine", "s"), "s"),
        "engines.attention_entries": (entries, "count"),
        "engines.rows_recomputed": (rows, "count"),
        "engines.attention_useful_scores": (useful, "count"),
        "engines.attention_useful_share": (useful / scores, "fraction"),
    }
    if engine != "vanilla":
        possible = cfg.num_layers * lay.total_length * len(steps)
        m.update({
            "engines.refreshes.visual": (sum(d.trace.refresh_counts("visual")), "count"),
            "engines.refreshes.text": (sum(d.trace.refresh_counts("text")), "count"),
            "engines.cache_rows_hit": (possible - rows, "count"),
            "engines.cache_rows_possible": (possible, "count"),
            "engines.cache_hit_share": (1 - rows / possible, "fraction"),
        })
    if engine == "mars":
        m.update({
            "mars.proxy_scores.s": (get("mars.proxy_scores", "s"), "s"),
            "mars.select_anchors.s": (get("mars.select_anchors", "s"), "s"),
            "mars.visual_key_visibility.s": (get("mars.visual_key_visibility", "s"), "s"),
            "engines.proxy_entries": (sum(rec.proxy_entries for rec in steps), "count"),
        })
    return {f"{engine}.{k}": v for k, v in m.items()}


def run_traced(p, workload: str, seed: int, seconds: float):
    spec = WORKLOADS[workload]
    tracer = Tracer()
    with tracer.installed():
        su = set_up(p, spec, seed)
    r = Runner(p, su, workload)
    deadline = time.perf_counter() + seconds

    r.decode("mars")  # untimed warm-up and mars reference, as untraced
    traced = {}
    for e in ENGINES:
        tracer.decode_id = e
        with tracer.installed():
            traced[e] = r.decode(e, tracer)
    if any(d is None for d in traced.values()):
        failed = [e for e, d in traced.items() if d is None]
        raise SystemExit(f"perfbench: traced decode failed for {failed}")

    # Tracing overhead: alternate untraced and traced mars decodes.
    plain, with_spans = [], [traced["mars"]]
    pair = 0
    while pair < MIN_OVERHEAD_PAIRS or (
            time.perf_counter() + 2 * traced["mars"].wall_s <= deadline):
        d = r.decode("mars")
        if d is not None:
            plain.append(d)
        tracer.decode_id = f"mars-overhead-{pair}"
        with tracer.installed():
            d = r.decode("mars", tracer)
        if d is not None:
            with_spans.append(d)
        pair += 1

    metrics = {}
    setup_summary = summarize(tracer.spans, "setup")
    for name in ("model.init_weights", "workload.make_workload"):
        metrics[f"setup.{name}.s"] = (setup_summary[name]["s"], "s")
    for e in ENGINES:
        metrics.update(layer_metrics(su, e, tracer.spans, traced[e]))
    vanilla_tokens = traced["vanilla"].tokens
    for e in ("dual_cache", "mars"):
        metrics[f"{e}.agreement_vs_vanilla"] = (
            agreement(traced[e].tokens, vanilla_tokens), "fraction")
    untraced_tps = statistics.median(tokens_per_s(d) for d in plain)
    traced_tps = statistics.median(tokens_per_s(d) for d in with_spans)
    metrics["mars.untraced.tokens_per_s"] = (untraced_tps, "tok/s")
    metrics["mars.traced.tokens_per_s"] = (traced_tps, "tok/s")
    metrics["mars.tracing_overhead.tokens_per_s"] = (traced_tps - untraced_tps, "tok/s")
    samples = {
        "traced_decodes": {e: 1 for e in ENGINES},
        "overhead_pairs": pair,
        "mars.untraced_decodes": len(plain),
        "mars.traced_decodes": len(with_spans),
        "spans": len(tracer.spans),
    }
    return r, metrics, {}, samples, {"spans": tracer.spans}


# -----------------------------------------------------------------------------
# Environment stamp and entry point
# -----------------------------------------------------------------------------

def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that NumPy loaded, if found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(p, workload: str, seed: int) -> dict:
    spec = WORKLOADS[workload]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lay = p.workload.default_layout(
        spec.num_frames, spec.patches_per_frame, spec.prompt_length,
        spec.generation_length, spec.block_length,
    )
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {"OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
                         "effective": openblas_threads()},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "load": "closed loop, one client, one decode at a time",
        "seed": seed,
        "workload": {
            "name": workload, "L": lay.total_length, "V": lay.visual_length,
            "steps": spec.num_steps, "blocks": lay.num_blocks,
        },
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the report (result line under "result")."""
    p = load_program()
    env = environment(p, workload, seed)
    runner = run_traced if trace else run_untraced
    r, metrics, extra, samples, dump = runner(p, workload, seed, seconds)
    attempted = sum(r.attempted.values())
    failed = sum(r.failed.values())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {
        "result": result,
        "environment": env,
        "also_reported": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "samples": samples,
        "checks": {"attempted": r.attempted, "failed": r.failed, "problems": r.problems},
        **dump,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report))
    print("# environment " + json.dumps(report["environment"]))
    print("# samples " + json.dumps(report["samples"]))
    print("# checks " + json.dumps({k: report["checks"][k] for k in ("attempted", "failed")}))
    for section in ("result", "also_reported"):
        metrics = report[section]["metrics"] if section == "result" else report[section]
        for name, m in metrics.items():
            print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# report written to {out.relative_to(ROOT)}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
