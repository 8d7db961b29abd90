"""Figure 2 — search wall-clock time across datasets and methods.

Paper setup: K-dash with K ∈ {5, 25, 50} (hybrid reordering), NB_LIN with
SVD target rank ∈ {100, 1000}, BPA with K ∈ {5, 25, 50} and 1,000 hubs,
on all five datasets, c = 0.95.  Our graphs are ~10–100× smaller, so the
rank/hub axes scale down proportionally (defaults: ranks {20, 150}, 150
hubs); the *shape* to reproduce is K-dash being orders of magnitude
faster than both baselines on every dataset.
"""

from __future__ import annotations

from typing import Sequence

from ..harness import ExperimentContext
from ..reporting import ResultTable
from ..timing import time_callable

K_VALUES = (5, 25, 50)


def run(
    ctx: ExperimentContext,
    nb_ranks: Sequence[int] = (20, 150),
    bpa_hubs: int = 150,
    n_queries: int = 8,
    repeats: int = 3,
) -> ResultTable:
    """Measure median per-query wall-clock for every method/dataset."""
    columns = ["dataset"]
    columns += [f"K-dash({k})" for k in K_VALUES]
    columns += [f"NB_LIN({r})" for r in nb_ranks]
    columns += [f"BPA({k})" for k in K_VALUES]
    table = ResultTable(
        "Figure 2: top-k search wall-clock time [s] (median per query)",
        columns,
        notes=[
            f"c={ctx.c}, hybrid reordering, {n_queries} queries per dataset",
            f"BPA uses {bpa_hubs} hub nodes; NB_LIN ranks scaled from the "
            "paper's 100/1,000 to match the smaller graphs",
            "expected shape: K-dash columns orders of magnitude below both baselines",
        ],
    )
    for name in ctx.dataset_names:
        queries = ctx.queries(name, n_queries)
        row = [name]
        index = ctx.kdash(name)
        for k in K_VALUES:
            seconds, _ = time_callable(
                lambda: [index.top_k(q, k) for q in queries], repeats=repeats
            )
            row.append(seconds / len(queries))
        for rank in nb_ranks:
            method = ctx.nb_lin(name, rank)
            seconds, _ = time_callable(
                lambda: [method.top_k(q, 5) for q in queries], repeats=repeats
            )
            row.append(seconds / len(queries))
        push = ctx.bpa(name, bpa_hubs)
        for k in K_VALUES:
            seconds, _ = time_callable(
                lambda: [push.top_k(q, k) for q in queries], repeats=repeats
            )
            row.append(seconds / len(queries))
        table.add_row(*row)
    return table
