"""Output checks for one benchmark session, from the files it wrote.

Each check returns a list of problems; an empty list means it passed. The
oracles are scalar Python, independent of the numpy code they check.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

RANKS = (1, 5, 10, 20)
TOLERANCE = 1e-12
# the model defaults the workloads leave in place
ALPHA = 0.1
ALPHA_ROW, GAMMA_ROW = 0.1, 0.0


def _lines(path: str) -> list[list[str]]:
    """Comma-split rows of a table, without its leading '#' comment lines."""
    with open(path, newline="") as f:
        return [row for row in csv.reader(line for line in f if not line.startswith("#"))]


def read_scores(path: str) -> tuple[list[str], list[tuple[str, list[float]]]]:
    header, *rows = _lines(path)
    return header[1:], [(row[0], [float(x) for x in row[1:]]) for row in rows]


def query_subjects(path: str) -> dict[str, str]:
    header, *rows = _lines(path)
    tid, sid = header.index("tracklet_id"), header.index("subject_id")
    return {row[tid]: row[sid] for row in rows}


def count_rows(path: str) -> int:
    return len(_lines(path)) - 1


def check_fusion(data: str) -> list[str]:
    """fused == alpha * shape + (1 - alpha) * appearance, entry by entry."""
    gal_s, shape = read_scores(os.path.join(data, "scores_shape.csv"))
    gal_a, app = read_scores(os.path.join(data, "scores_appearance.csv"))
    gal_f, fused = read_scores(os.path.join(data, "scores_fused.csv"))
    if not gal_s == gal_a == gal_f:
        return ["score files disagree on gallery ids"]
    if [q for q, _ in shape] != [q for q, _ in fused] or [q for q, _ in app] != [q for q, _ in fused]:
        return ["score files disagree on query ids"]
    worst = max(
        abs(f - (ALPHA * s + (1.0 - ALPHA) * a))
        for (_, rs), (_, ra), (_, rf) in zip(shape, app, fused)
        for s, a, f in zip(rs, ra, rf)
    )
    return [] if worst <= TOLERANCE else [f"fused score off by {worst:.3e}"]


def oracle_report(data: str) -> dict[str, float]:
    """rank-k and mAP recomputed from scores_fused.csv and query.csv."""
    gallery, fused = read_scores(os.path.join(data, "scores_fused.csv"))
    subject_of = query_subjects(os.path.join(data, "query.csv"))
    positions = []
    for qid, row in fused:
        ranked = sorted(zip(gallery, row), key=lambda pair: (-pair[1], pair[0]))
        positions.append([i for i, (g, _) in enumerate(ranked) if g == subject_of[qid]])
    n = len(positions)
    out = {f"rank_{k}": sum(1 for p in positions if p[0] < k) / n for k in RANKS}
    aps = [math.fsum((hit + 1) / (pos + 1) for hit, pos in enumerate(p)) / len(p) for p in positions]
    out["map"] = math.fsum(aps) / n
    return out


def check_report(data: str) -> list[str]:
    header, values = _lines(os.path.join(data, "report.csv"))
    reported = dict(zip(header, (float(v) for v in values)))
    expected = oracle_report(data)
    if set(reported) != set(expected):
        return [f"report.csv columns {sorted(reported)} != {sorted(expected)}"]
    return [
        f"report {key}={reported[key]!r}, oracle {expected[key]!r}"
        for key in expected
        if abs(reported[key] - expected[key]) > TOLERANCE
    ]


def check_sweeps(data: str) -> list[str]:
    """Both sweeps pass through the default model, so those rows must agree."""
    alpha = {float(a): r for a, r in _lines(os.path.join(data, "ablate_alpha.csv"))[1:]}
    gamma = {float(g): r for g, r in _lines(os.path.join(data, "ablate_gamma.csv"))[1:]}
    if ALPHA_ROW not in alpha or GAMMA_ROW not in gamma:
        return ["sweep tables lack the default-model rows"]
    if float(alpha[ALPHA_ROW]) != float(gamma[GAMMA_ROW]):
        return [f"rank1 at alpha={ALPHA_ROW} is {alpha[ALPHA_ROW]}, at gamma={GAMMA_ROW} is {gamma[GAMMA_ROW]}"]
    return []


def check_loss_trace(data: str) -> list[str]:
    losses = [float(loss) for _, loss in _lines(os.path.join(data, "loss_trace.csv"))[1:]]
    if len(losses) < 2:
        return ["loss trace has fewer than two entries"]
    rises = [i for i in range(1, len(losses)) if losses[i] > losses[i - 1]]
    problems = [f"loss rises at steps {rises[:5]}"] if rises else []
    if not losses[-1] < losses[0]:
        problems.append(f"final loss {losses[-1]!r} not below initial {losses[0]!r}")
    return problems


# the first two read the query outputs, the last two the sweep outputs
OUTPUT_CHECKS = {
    "fusion": check_fusion,
    "report_oracle": check_report,
    "sweep_rows": check_sweeps,
    "loss_trace": check_loss_trace,
}


def run_output_checks(data: str, sweeps: str) -> dict[str, list[str]]:
    """Every output check on one session's directories; a crash is a problem too."""
    results = {}
    for name, check in OUTPUT_CHECKS.items():
        try:
            results[name] = check(data if name in ("fusion", "report_oracle") else sweeps)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            results[name] = [f"{type(exc).__name__}: {exc}"]
    return results


def snapshot(root: str, dirs: tuple[str, ...]) -> dict[str, str]:
    """sha256 of every file under root's dirs, keyed by path relative to root."""
    out = {}
    for top in dirs:
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for name in files:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as f:
                    out[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return out


def snapshot_diff(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def tree_bytes(root: str, dirs: tuple[str, ...]) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for top in dirs
        for dirpath, _, files in os.walk(os.path.join(root, top))
        for name in files
    )
