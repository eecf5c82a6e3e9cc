"""Span tracer for sharc, installed from outside the package.

`Tracer.install` rebinds each instrumented function in its defining module
and in every sharc module that imported it by name (and sets instrumented
methods on their classes), so no file of the package changes; `uninstall`
puts the originals back. A span records its name, start, end and parent
span; a span's self time is its duration minus the durations of its
children. Spans nest on one stack, so traced sessions run single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter


# hooks run after an instrumented call returns: hook(tracer, args, result)
def _frames_one(tracer, args, result):
    tracer.counts["encoders.frames_encoded"] += 1


def _frames_sequence(tracer, args, result):
    tracer.counts["encoders.frames_encoded"] += len(args[0])


def _bytes_written(tracer, args, result):
    tracer.counts["synth.bytes_written"] += os.path.getsize(args[1])


def _bytes_read(tracer, args, result):
    tracer.counts["synth.bytes_read"] += os.path.getsize(args[0])
    tracer.counts["synth.tracklets_loaded"] += 1


def _index_bytes(tracer, args, result):
    tracer.counts["gallery.index_bytes"] += os.path.getsize(args[1])


def _pairs(tracer, args, result):
    queries, index = args[0], args[1]
    tracer.counts["matcher.pairs_scored"] += len(queries) * len(index.entries)


def _groups(tracer, args, result):
    tracer.counts["gallery.chunk_frames.groups"] += len(result)
    tracer.counts["gallery.chunk_frames.slots"] += sum(len(g) for g in result)
    tracer.counts["gallery.chunk_frames.frames"] += args[0]


def _embedding(tracer, args, result):
    """Count (tracklet, shape model) pairs not yet embedded in this command."""
    key = (args[0].tracklet_id, id(args[1]))
    if key not in tracer.embedded:
        tracer.embedded.add(key)
        tracer.counts["shape.embed.useful"] += 1


# (module, attribute or Class.method, span name or None for count-only, hook)
INSTRUMENTS = (
    ("sharc.synth", "generate_dataset", "synth.generate_dataset", None),
    ("sharc.synth", "write_dataset", "synth.write_dataset", None),
    ("sharc.synth", "load_dataset", "synth.load_dataset", None),
    ("sharc.synth", "write_tracklet_frames", None, _bytes_written),
    ("sharc.synth", "read_tracklet_frames", None, _bytes_read),
    ("sharc.encoders", "encode_silhouette", "encoders.encode_silhouette", _frames_one),
    ("sharc.encoders", "encode_smpl", "encoders.encode_smpl", _frames_one),
    ("sharc.encoders", "encode_skeleton_sequence", "encoders.encode_skeleton_sequence", _frames_sequence),
    ("sharc.encoders", "encode_appearance", "encoders.encode_appearance", _frames_one),
    ("sharc.shape", "ShapeModel.embed", "shape.embed", None),
    ("sharc.shape", "fuse_pose", "shape.fuse_pose", None),
    ("sharc.shape", "temporal_pool_pose", "shape.temporal_pool_pose", None),
    ("sharc.shape", "ShapeModel.motion_bin", "shape.motion_bin", None),
    ("sharc.core", "strip_pool", "core.strip_pool", None),
    ("sharc.gallery", "AppearanceModel.embed_tracklet", "gallery.AppearanceModel.embed_tracklet", None),
    ("sharc.appearance", "pyramid_aggregate", "appearance.pyramid_aggregate", None),
    ("sharc.appearance", "average_aggregate", "appearance.average_aggregate", None),
    ("sharc.appearance", "flatten_feature", "appearance.flatten_feature", None),
    ("sharc.appearance", "mean_embedding", "appearance.mean_embedding", None),
    ("sharc.gallery", "tracklet_embeddings", "gallery.tracklet_embeddings", _embedding),
    ("sharc.gallery", "register", "gallery.register", None),
    ("sharc.gallery", "chunk_frames", None, _groups),
    ("sharc.gallery", "save_index", "gallery.save_index", _index_bytes),
    ("sharc.gallery", "load_index", "gallery.load_index", None),
    ("sharc.matcher", "shape_scores", "matcher.shape_scores", _pairs),
    ("sharc.matcher", "appearance_scores", "matcher.appearance_scores", _pairs),
    ("sharc.matcher", "fuse_scores", "matcher.fuse_scores", None),
    ("sharc.matcher", "rank", "matcher.rank", None),
    ("sharc.matcher", "ScoreMatrix.write_csv", "matcher.write_csv", None),
    ("sharc.matcher", "ScoreMatrix.read_csv", "matcher.read_csv", None),
    ("sharc.core", "cosine_similarity", None, None),
    ("sharc.core", "euclidean_distance", None, None),
    ("sharc.core", "as_vector", None, None),
    ("sharc.metrics", "evaluate_ranking", "metrics.evaluate_ranking", None),
    ("sharc.metrics", "cmc", None, None),
    ("sharc.metrics", "average_precision", None, None),
    ("sharc.losses", "train_toy", "losses.train_toy", None),
    ("sharc.losses", "numerical_gradient", "losses.numerical_gradient", None),
    ("sharc.config", "parse_config", "config.parse_config", None),
    ("sharc.config", "build_appearance_model", None, None),
)

ROOT_SPAN = "cli"


def _count_name(module: str, attr: str) -> str:
    return f"{module.split('.')[-1]}.{attr.split('.')[-1]}.calls"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.embedded: set = set()  # (tracklet id, id of shape model) pairs of the current command

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.embedded.clear()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, span: str | None, count: str, hook):
        counts, spans, stack = self.counts, self.spans, self._stack
        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[count] += 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, result)
                return result

            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            counts[count] += 1
            record = [span, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return timed

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span, hook in INSTRUMENTS:
            module = importlib.import_module(module_name)
            count = _count_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(original.__func__, span, count, hook))
                else:
                    replacement = self._wrap(original, span, count, hook)
                self._rebind(cls, meth, original, replacement)
                continue
            original = getattr(module, attr)
            replacement = self._wrap(original, span, count, hook)
            for name, mod in list(sys.modules.items()):
                if name == "sharc" or name.startswith("sharc."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, original, replacement)

    def _rebind(self, owner, key, original, replacement) -> None:
        setattr(owner, key, replacement)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def run_root(self, fn, *args):
        """Call fn as a root span; the per-command embedding set starts empty."""
        self.embedded.clear()
        return self._wrap(fn, ROOT_SPAN, "cli.commands", None)(*args)

    # -- results ----------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def nesting_problems(self) -> list[str]:
        """Spans that are open or stick out of their parent.

        Self times add up to their root span only if every span is closed
        and lies inside its parent; a span opened on another thread breaks
        that, because spans nest on one stack.
        """
        problems = [f"{len(self._stack)} spans still open"] if self._stack else []
        for name, start, end, parent in self.spans:
            if end < start:
                problems.append(f"span {name} ends before it starts")
            elif parent >= 0 and not (self.spans[parent][1] <= start and end <= self.spans[parent][2]):
                problems.append(f"span {name} lies outside its parent {self.spans[parent][0]}")
        return problems[:5]

    def self_seconds(self) -> dict[str, float]:
        out: Counter = Counter()
        for (name, *_), value in zip(self.spans, self.self_times_ns()):
            out[name] += value
        return {name: value / 1e9 for name, value in out.items()}
