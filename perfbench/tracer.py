"""In-process span recorder for one pipeline stage, and its process entry point.

    python3 perfbench/tracer.py SPANS_OUT cli|stages -- ARGV...

runs `milsent.cli.main(ARGV)` (or `stages.main(ARGV)`) with every call from
one milsent layer into another layer's public functions wrapped in a span.
A layer is one module: corpus, preprocess, eventstudy, embed, mil,
baselines, evaluate; `config` is negligible and not traced. Calls inside a
module are not wrapped, so per-sentence helpers cost no span unless another
layer calls them. Spans stay in memory and are written to SPANS_OUT as JSON
when the stage ends.

A span is [name, start, end, parent index, counts]. Times are
`time.perf_counter()` readings, which on Linux share one monotonic clock
across processes, so the harness can place them inside its own stage span.
Spans of the `trace` layer are the recorder's own work (counting, the
post-run loss probe): the harness leaves them out of every layer's time.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import inspect  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
import types  # noqa: E402

LAYERS = ("corpus", "preprocess", "eventstudy", "embed", "mil", "baselines", "evaluate")


def _docs(result) -> dict:
    return {"docs": len(result), "sentences": sum(len(d.sentences) for d in result)}


def _embedded(bound, result) -> dict:
    from milsent.embed import PRECOMPUTED_SENTENCE

    sentences = [s for d in result for s in d.sentences]
    tokens = 0
    if bound.arguments["store"].provider != PRECOMPUTED_SENTENCE:
        tokens = sum(len(s.tokens) for s in sentences)
    return {"sentences": len(sentences), "tokens": tokens,
            "zero_vectors": sum(1 for s in sentences if not s.embedding.any())}


# Counts taken where the work happens: qualified name -> f(bound args, result).
COUNTS = {
    "corpus.load_corpus": lambda b, r: _docs(r),
    "preprocess.build_vocabulary": lambda b, r: {
        "tokens": sum(len(t) for t in b.arguments["corpus"])},
    "preprocess.filter_corpus": lambda b, r: {
        "docs_in": len(b.arguments["corpus"]), "docs_out": len(r)},
    "eventstudy.label_documents": lambda b, r: {
        "docs_in": len(b.arguments["corpus"]), "docs_out": len(r.documents)},
    "embed.embed_corpus": _embedded,
    "mil.train": lambda b, r: {"instances": b.arguments["dataset"].n_instances},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trained: list[tuple] = []  # (dataset, config, result) per mil.train call

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)
        signature = inspect.signature(fn) if count else None

        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if count:
                tally = self._open("trace.count")
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[4] = count(bound, result)
                if name == "mil.train":
                    self.trained.append((bound.arguments["dataset"],
                                         bound.arguments["config"], result))
                self._close(tally)
            return result

        traced.__wrapped__ = fn
        return traced

    def note(self, key: str, value) -> None:
        """Attach a count to the innermost open span."""
        if self.stack:
            record = self.spans[self.stack[-1]]
            record[4] = {**(record[4] or {}), key: value}


class _LayerProxy:
    """Stands in for a layer module inside a caller: wrapped public functions,
    everything else read through from the module."""

    def __init__(self, module, functions: dict):
        self._module = module
        self.__dict__.update(functions)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _public_functions(module) -> dict:
    return {
        name: obj for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def install(tracer: Tracer, callers) -> None:
    """Rebind, in each caller module, the layer modules and layer functions it
    imported from another module to traced stand-ins."""
    layers = {name: sys.modules[f"milsent.{name}"] for name in LAYERS}
    wrapped = {}
    for layer, module in layers.items():
        for fname, fn in _public_functions(module).items():
            wrapped[fn] = tracer.wrap(f"{layer}.{fname}", fn)
    proxies = {
        module: _LayerProxy(module, {n: wrapped[f] for n, f in _public_functions(module).items()})
        for module in layers.values()
    }
    for caller in callers:
        for name, value in list(vars(caller).items()):
            if isinstance(value, types.ModuleType) and value in proxies and value is not caller:
                setattr(caller, name, proxies[value])
            elif (inspect.isfunction(value) and value in wrapped
                  and value.__module__ != caller.__name__):
                setattr(caller, name, wrapped[value])


class _IterationLog(logging.Handler):
    """Reads the bag-of-words fit's iteration count from its debug record."""

    def __init__(self, tracer: Tracer):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record):
        if record.getMessage().startswith("bow logreg converged in"):
            self.tracer.note("iterations", int(record.args[0]))


def probe_training(tracer: Tracer) -> None:
    """Time one public `mil.loss` on the full training data, and its
    tracemalloc peak, for every `mil.train` call of the stage.

    Counts labelled computed come from n, the batch sizes and the epochs:
    the loss trace evaluates (epochs + 1) full-data losses over n^2 pairs,
    and each epoch's minibatch gradients evaluate n_b^2 pairs per batch
    (batches taken in dataset order; the shuffle does not change the sum
    when groups have equal sizes).
    """
    from milsent import mil

    for dataset, config, result in tracer.trained:
        record = tracer._open("trace.probe")
        lam, gamma = config.lam, config.kernel_gamma
        start = time.perf_counter()
        mil.loss(result.model, dataset, lam, gamma)
        loss_s = time.perf_counter() - start
        tracemalloc.start()
        mil.loss(result.model, dataset, lam, gamma)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        sizes = [len(matrix) for matrix, _ in dataset.groups]
        n = sum(sizes)
        step = config.groups_per_batch
        batch_pairs = sum(sum(sizes[i:i + step]) ** 2 for i in range(0, len(sizes), step))
        record[4] = {
            "loss_s": loss_s,
            "loss_peak_bytes": peak,
            "epochs": config.epochs,
            "pair_terms": (config.epochs + 1) * n * n + config.epochs * batch_pairs,
            "kernel_bytes": 8 * n * n,
        }
        tracer._close(record)


def main(argv: list[str]) -> int:
    out_path, target, sep, *program_argv = argv
    if sep != "--" or target not in ("cli", "stages"):
        print("usage: tracer.py SPANS_OUT cli|stages -- ARGV...", file=sys.stderr)
        return 2
    import milsent.cli
    import stages

    tracer = Tracer()
    callers = [milsent.cli, stages] + [sys.modules[f"milsent.{n}"] for n in LAYERS]
    install(tracer, callers)
    bow_log = logging.getLogger("milsent.baselines")
    bow_log.setLevel(logging.DEBUG)
    bow_log.addHandler(_IterationLog(tracer))
    bow_log.propagate = False
    entry = milsent.cli.main if target == "cli" else stages.main
    try:
        code = entry(program_argv)
        if code == 0:
            probe_training(tracer)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"t0": T0, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
