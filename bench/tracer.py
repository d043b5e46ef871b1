"""Span recorder for the traced run.

`install()` wraps each layer entry point listed in ENTRY_POINTS.  A
`from .x import f` in a package module creates a separate binding of `f`,
so the wrapper is bound again under every name of every `shiftquot.*`
module that holds the original; otherwise calls inside the package would
bypass the span.  Methods and static methods are replaced on their class.

A span is (id, name, start, end, parent id, job index).  Self time is
the span's duration minus the time covered by its child spans; it is
summed per entry point as spans close, and the spans themselves are kept
in memory (up to MAX_SPANS) and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

MODULES = ("cli", "graphs", "embedding", "rays", "metrics", "smale", "algebra", "geometry")

ENTRY_POINTS = (
    "cli.main", "cli.load_bundle", "cli.SeedBundle.pair",
    "graphs.is_primitive", "graphs.paths_of_length",
    "embedding.check_standing_hypotheses", "embedding.quotient_graph", "embedding.completion_tables",
    "rays.LassoRay.make", "rays.flip", "rays.canonical", "rays.stratum_approximant",
    "rays.shift_by", "rays.lift_preimage",
    "metrics.d_extended", "metrics.tau_ray",
    "smale.pi_xi_tower", "smale.tower_distance", "smale.bracket", "smale.pair_related",
    "algebra.smith_normal_form", "algebra.FgAbelianGroup.of", "algebra.ruelle_k_theory",
    "algebra.build_pair_complex", "algebra.synthesize_seed",
    "geometry.zeta_approx", "geometry.fiber_classify", "geometry.circle_specs_report",
    "geometry.render_svg", "geometry.embedding_injectivity_check",
)

MAX_SPANS = 100_000
SNF = "algebra.smith_normal_form"
PER_JOB = ("embedding.check_standing_hypotheses", "geometry.circle_specs_report")


def _snf_bucket(n: int) -> str:
    return "n_le16" if n <= 16 else "n17_32" if n <= 32 else "n_gt32"


def _max_bits(decomposition) -> int:
    return max(
        (abs(x).bit_length() for m in (decomposition.u, decomposition.d, decomposition.v)
         for row in m.entries for x in row),
        default=0,
    )


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.job = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.snf_bucket_s: dict[str, float] = defaultdict(float)
        self.snf_max_bits = 0
        self.words = 0
        self.job_calls: dict[str, dict[int, int]] = {name: defaultdict(int) for name in PER_JOB}
        self._stack: list[list] = []  # [span id, child seconds]
        self._last_error: dict[str, BaseException] = {}
        self.completion_tables = None

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        module = name.split(".", 1)[0]
        rec = self

        def wrapper(*args, **kwargs):
            index = rec.next_id
            rec.next_id += 1
            parent = rec._stack[-1][0] if rec._stack else None
            frame = [index, 0.0]
            rec._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if rec._last_error.get(module) is not exc:
                    rec._last_error[module] = exc
                    rec.errors[module] += 1
                raise
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                dur = end - start
                own = dur - frame[1]
                if rec._stack:
                    rec._stack[-1][1] += dur
                rec.calls[name] += 1
                rec.self_s[name] += own
                if name in rec.job_calls:
                    rec.job_calls[name][rec.job] += 1
                if name == SNF:
                    rec.snf_bucket_s[_snf_bucket(max(args[0].rows, args[0].cols))] += own
                if len(rec.spans) < MAX_SPANS:
                    rec.spans.append((index, name, start, end, parent, rec.job))
                else:
                    rec.dropped += 1
            if name == SNF:
                rec.snf_max_bits = max(rec.snf_max_bits, _max_bits(result))
            elif name == "graphs.paths_of_length":
                rec.words += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every entry point and rebind it wherever the package holds it."""
        package = [m for n, m in sys.modules.items() if n == "shiftquot" or n.startswith("shiftquot.")]
        for name in ENTRY_POINTS:
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"shiftquot.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            raw = vars(owner)[path[-1]]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapper = self.wrap(name, fn)
            if name == "embedding.completion_tables":
                self.completion_tables = fn
            if len(path) > 1:  # a method or static method: replace it on the class
                setattr(owner, path[-1], staticmethod(wrapper) if is_static else wrapper)
                continue
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    # -- results ----------------------------------------------------------------

    def cache_counts(self) -> tuple[int, int]:
        info = getattr(self.completion_tables, "cache_info", None)
        if info is None:
            return 0, 0
        ci = info()
        return ci.hits, ci.misses

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in ENTRY_POINTS:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        out[f"{SNF}.max_bits"] = self.snf_max_bits
        for bucket in ("n_le16", "n17_32", "n_gt32"):
            out[f"{SNF}.self_s.{bucket}"] = self.snf_bucket_s.get(bucket, 0.0)
        out["graphs.paths_of_length.words"] = self.words
        for name in PER_JOB:
            per_job = self.job_calls[name]
            out[f"{name}.calls_per_job"] = sum(per_job.values()) / len(per_job) if per_job else 0.0
        for module in MODULES:
            out[f"{module}.errors"] = self.errors.get(module, 0)
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per line: id, name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name, start, end, parent, job in sorted(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
