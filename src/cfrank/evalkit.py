"""Leave-one-out evaluation: hit ratio and NDCG at a cutoff, overall and per
item-coldness bucket, plus plain-text/TSV comparison tables."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .corpus import BUCKET_NAMES, ColdnessBuckets, SplitPair
from .mathcore import RandomStream
from .rankers import recommend_topn


def hr_at_n(ranked, truth, n: int) -> int:
    """1 if the held-out item appears in the first n entries."""
    if n > len(ranked):
        raise ValueError("cutoff exceeds ranking length")
    return int(truth in ranked[:n])


def ndcg_at_n(ranked, truth, n: int) -> float:
    """Position-discounted gain for a single relevant item: 1/log2(rank+1)."""
    if n > len(ranked):
        raise ValueError("cutoff exceeds ranking length")
    for rank, item in enumerate(ranked[:n], start=1):
        if item == truth:
            return 1.0 / math.log2(rank + 1)
    return 0.0


@dataclass
class EvalReport:
    hr: float
    ndcg: float
    n: int
    n_users: int
    candidate_policy: str
    metadata: dict = field(default_factory=dict)


def _candidate_sets(split: SplitPair, candidate_policy: str, stream):
    """Per-test-user candidate lists under the chosen policy.

    "all" ranks every item except the user's training positives; "sampled:m"
    ranks the held-out item against m uniformly sampled items the user never
    interacted with.
    """
    train_pos = split.train.positives_by_user()
    n_items = split.train.n_items
    out = []
    if candidate_policy == "all":
        for user, truth in split.test:
            exclude = train_pos[user]
            out.append([i for i in range(n_items) if i not in exclude])
        return out
    if candidate_policy.startswith("sampled:"):
        size = candidate_policy.split(":", 1)[1]
        if not (size.isdecimal() and int(size) >= 1):
            raise ValueError(
                f"candidate policy {candidate_policy!r}: the sample size must be "
                "an integer >= 1"
            )
        m = int(size)
        if stream is None:
            raise ValueError("sampled candidate policy needs a random stream")
        for user, truth in split.test:
            forbidden = train_pos[user] | {truth}
            pool = [i for i in range(n_items) if i not in forbidden]
            if m > len(pool):
                raise ValueError(f"cannot sample {m} candidates for user {user}")
            picked = stream.choice(len(pool), size=m, replace=False)
            out.append([truth] + [pool[int(x)] for x in picked])
        return out
    raise ValueError(f"unknown candidate policy {candidate_policy!r}")


def evaluate(
    model, split: SplitPair, n=10, candidate_policy="all", stream: RandomStream | None = None
) -> EvalReport:
    """Average HR@n and NDCG@n of the model over the held-out test points."""
    candidates = _candidate_sets(split, candidate_policy, stream)
    hr_sum = ndcg_sum = 0.0
    for (user, truth), cands in zip(split.test, candidates):
        ranked = recommend_topn(model, user, cands, n=min(n, len(cands)))
        hr_sum += hr_at_n(ranked, truth, len(ranked))
        ndcg_sum += ndcg_at_n(ranked, truth, len(ranked))
    count = len(split.test)
    if count == 0:
        return EvalReport(0.0, 0.0, n, 0, candidate_policy, {"empty_test": True})
    return EvalReport(hr_sum / count, ndcg_sum / count, n, count, candidate_policy)


def coldness_report(
    model,
    split: SplitPair,
    buckets: ColdnessBuckets,
    n=10,
    candidate_policy="all",
    stream: RandomStream | None = None,
) -> dict:
    """Per-bucket reports keyed by bucket name; empty buckets are absent."""
    grouped: dict = {}
    for user, truth in split.test:
        grouped.setdefault(buckets.name_of(truth), []).append((user, truth))
    out = {}
    for name in BUCKET_NAMES:
        if name not in grouped:
            continue
        sub = SplitPair(train=split.train, test=grouped[name])
        out[name] = evaluate(model, sub, n, candidate_policy, stream)
    return out


def _improvement(value: float, base: float) -> str:
    if base == 0:
        return "n/a"
    return f"{100.0 * (value - base) / base:+.1f}%"


def comparison_table(reports: dict, baselines: dict | None = None) -> str:
    """Aligned text table of models by metrics, with relative improvements
    against each model's mapped baseline."""
    baselines = baselines or {}
    n = next(iter(reports.values())).n if reports else 10
    rows = [("model", f"HR@{n}", f"NDCG@{n}", "users")]
    for name, rep in reports.items():
        hr = f"{rep.hr:.4f}"
        ndcg = f"{rep.ndcg:.4f}"
        if name in baselines and baselines[name] in reports:
            base = reports[baselines[name]]
            hr += f" ({_improvement(rep.hr, base.hr)})"
            ndcg += f" ({_improvement(rep.ndcg, base.ndcg)})"
        rows.append((name, hr, ndcg, str(rep.n_users)))
    widths = [max(len(row[col]) for row in rows) for col in range(4)]
    lines = []
    for idx, row in enumerate(rows):
        cells = [row[0].ljust(widths[0])] + [
            row[col].rjust(widths[col]) for col in range(1, 4)
        ]
        lines.append("  ".join(cells))
        if idx == 0:
            lines.append("-" * len(lines[0]))
    return "\n".join(lines)


def comparison_tsv(reports: dict, baselines: dict | None = None) -> str:
    baselines = baselines or {}
    n = next(iter(reports.values())).n if reports else 10
    lines = [f"model\thr@{n}\tndcg@{n}\tusers\thr_improvement\tndcg_improvement"]
    for name, rep in reports.items():
        hr_imp = ndcg_imp = ""
        if name in baselines and baselines[name] in reports:
            base = reports[baselines[name]]
            hr_imp = _improvement(rep.hr, base.hr)
            ndcg_imp = _improvement(rep.ndcg, base.ndcg)
        lines.append(
            f"{name}\t{rep.hr:.6f}\t{rep.ndcg:.6f}\t{rep.n_users}\t{hr_imp}\t{ndcg_imp}"
        )
    return "\n".join(lines) + "\n"
