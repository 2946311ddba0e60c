"""Simulated-dataset experiments: Table 3, Table 4 and Figs. 2-3."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..baselines import resolver_by_name
from ..data.schema import PropertyKind
from ..data.table import TruthTable
from ..datasets import (
    ADULT_ROUNDING,
    BANK_ROUNDING,
    PAPER_GAMMAS,
    dataset_statistics,
    generate_adult_truth,
    generate_bank_truth,
    reliable_unreliable_mix,
    simulate_sources,
)
from ..datasets.base import GeneratedData
from ..metrics import error_rate, mnad
from ..observability.tracer import Tracer
from .harness import MethodTable, run_method_table
from .render import render_series, render_table

#: default scaled-down object counts (full scale: 32,561 / 45,211)
DEFAULT_ADULT_OBJECTS = 2_000
DEFAULT_BANK_OBJECTS = 2_000


def _simulated_workload(
    truth_generator: Callable[[int, int], TruthTable],
    rounding: dict[str, int],
    n_objects: int,
    gammas: Sequence[float] = PAPER_GAMMAS,
) -> Callable[[int], GeneratedData]:
    def generate(seed: int) -> GeneratedData:
        truth = truth_generator(n_objects, seed)
        dataset = simulate_sources(
            truth, gammas, np.random.default_rng(seed + 10_000),
            rounding=rounding,
        )
        return GeneratedData(
            dataset=dataset,
            truth=truth,
            source_error_scale=np.asarray(gammas, dtype=float),
        )
    return generate


def simulated_workloads(adult_objects: int = DEFAULT_ADULT_OBJECTS,
                        bank_objects: int = DEFAULT_BANK_OBJECTS):
    """The Adult-sim and Bank-sim workloads of Section 3.2.2."""
    return {
        "Adult": _simulated_workload(generate_adult_truth, ADULT_ROUNDING,
                                     adult_objects),
        "Bank": _simulated_workload(generate_bank_truth, BANK_ROUNDING,
                                    bank_objects),
    }


@dataclass
class Table3Result:
    rows: list[tuple[str, int, int, int]]

    def render(self) -> str:
        """Render the Table 3 counters as aligned text."""
        return render_table(
            ["Dataset", "# Observations", "# Entries", "# Ground Truths"],
            self.rows,
            title="Table 3: statistics of simulated data sets",
        )


def run_table3(adult_objects: int = DEFAULT_ADULT_OBJECTS,
               bank_objects: int = DEFAULT_BANK_OBJECTS,
               seed: int = 7) -> Table3Result:
    """Regenerate Table 3: simulated dataset statistics."""
    rows = []
    workloads = simulated_workloads(adult_objects, bank_objects)
    for name, generate in workloads.items():
        generated = generate(seed)
        stats = dataset_statistics(name, generated.dataset, generated.truth)
        rows.append(stats.as_row())
    return Table3Result(rows=rows)


def run_table4(adult_objects: int = DEFAULT_ADULT_OBJECTS,
               bank_objects: int = DEFAULT_BANK_OBJECTS,
               seeds=(1, 2, 3),
               tracer: Tracer | None = None) -> MethodTable:
    """Regenerate Table 4: all methods on the simulated datasets.

    With a ``tracer``, every fit emits one ``method_run`` record (see
    :func:`~repro.experiments.harness.run_method_table`).
    """
    return run_method_table(
        title="Table 4: performance comparison on simulated data sets",
        workloads=simulated_workloads(adult_objects, bank_objects),
        seeds=seeds,
        tracer=tracer,
    )


#: the methods plotted in Figs. 2-3 alongside CRH
FIG23_METHODS = ("CRH", "Voting", "Mean", "Median", "GTM",
                 "PooledInvestment", "AccuSim")


@dataclass
class ReliableSourcesSweep:
    """Error Rate / MNAD vs number of reliable sources (Fig. 2 or 3)."""

    dataset_name: str
    n_reliable: tuple[int, ...]
    error_rates: dict[str, list[float | None]]
    mnads: dict[str, list[float | None]]

    def render(self) -> str:
        """Render both sweep panels as aligned text."""
        err = render_series(
            "#reliable", list(self.n_reliable), self.error_rates,
            title=(f"Fig. 2/3 ({self.dataset_name}): Error Rate vs number "
                   f"of reliable sources"),
        )
        distance = render_series(
            "#reliable", list(self.n_reliable), self.mnads,
            title=(f"Fig. 2/3 ({self.dataset_name}): MNAD vs number of "
                   f"reliable sources"),
        )
        return err + "\n\n" + distance


def run_reliable_sources_sweep(
    dataset_name: str = "Adult",
    n_objects: int = 1_500,
    n_sources: int = 8,
    methods: Sequence[str] = FIG23_METHODS,
    seed: int = 5,
) -> ReliableSourcesSweep:
    """Regenerate Fig. 2 (Adult) or Fig. 3 (Bank): vary reliable sources.

    Fixes 8 sources and sweeps the number of reliable ones (gamma = 0.1)
    from 0 to 8, the rest being unreliable (gamma = 2).
    """
    if dataset_name == "Adult":
        truth = generate_adult_truth(n_objects, seed)
        rounding = ADULT_ROUNDING
    elif dataset_name == "Bank":
        truth = generate_bank_truth(n_objects, seed)
        rounding = BANK_ROUNDING
    else:
        raise ValueError(f"unknown simulated dataset {dataset_name!r}")

    counts = tuple(range(n_sources + 1))
    error_rates: dict[str, list[float | None]] = {m: [] for m in methods}
    mnads: dict[str, list[float | None]] = {m: [] for m in methods}
    for n_reliable in counts:
        gammas = reliable_unreliable_mix(n_reliable, n_sources)
        dataset = simulate_sources(
            truth, gammas, np.random.default_rng(seed + n_reliable),
            rounding=rounding,
        )
        for method in methods:
            resolver = resolver_by_name(method)
            result = resolver.fit(dataset)
            error_rates[method].append(
                error_rate(result.truths, truth)
                if resolver.handles_kind(PropertyKind.CATEGORICAL) else None
            )
            mnads[method].append(
                mnad(result.truths, truth)
                if resolver.handles_kind(PropertyKind.CONTINUOUS) else None
            )
    return ReliableSourcesSweep(
        dataset_name=dataset_name,
        n_reliable=counts,
        error_rates=error_rates,
        mnads=mnads,
    )
