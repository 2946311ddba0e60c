"""Real-world-dataset experiments: Table 1, Table 2 and Fig. 1."""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines import resolver_by_name
from ..datasets import (
    FlightConfig,
    StockConfig,
    WeatherConfig,
    dataset_statistics,
    generate_flight_dataset,
    generate_stock_dataset,
    generate_weather_dataset,
)
from ..datasets.base import GeneratedData
from ..metrics import ReliabilityComparison, compare_reliability
from ..observability.tracer import Tracer
from .harness import MethodTable, run_method_table
from .render import render_series, render_table


def default_workloads(scale: float = 1.0):
    """The three real-world-shaped workloads at a given size scale.

    ``scale=1.0`` is the laptop default; the paper's full sizes are
    roughly ``scale=10`` for stock and ``scale=3`` for flight.
    """
    def weather(seed: int) -> GeneratedData:
        return generate_weather_dataset(WeatherConfig(seed=seed))

    def stock(seed: int) -> GeneratedData:
        return generate_stock_dataset(StockConfig(
            seed=seed,
            n_symbols=max(10, round(100 * scale)),
            n_days=10,
        ))

    def flight(seed: int) -> GeneratedData:
        return generate_flight_dataset(FlightConfig(
            seed=seed,
            n_flights=max(10, round(120 * scale)),
            n_days=10,
        ))

    return {"Weather": weather, "Stock": stock, "Flight": flight}


@dataclass
class Table1Result:
    """Dataset statistics (the paper's Table 1 counters)."""

    rows: list[tuple[str, int, int, int]]

    def render(self) -> str:
        """Render the Table 1 counters as aligned text."""
        return render_table(
            ["Dataset", "# Observations", "# Entries", "# Ground Truths"],
            self.rows,
            title="Table 1: statistics of real-world-shaped data sets",
        )


def run_table1(scale: float = 1.0, seed: int = 7) -> Table1Result:
    """Regenerate Table 1: per-dataset observation/entry/truth counts."""
    rows = []
    for name, generate in default_workloads(scale).items():
        generated = generate(seed)
        stats = dataset_statistics(name, generated.dataset, generated.truth)
        rows.append(stats.as_row())
    return Table1Result(rows=rows)


def run_table2(scale: float = 1.0, seeds=(1, 2, 3),
               tracer: Tracer | None = None) -> MethodTable:
    """Regenerate Table 2: all methods on weather/stock/flight.

    With a ``tracer``, every fit emits one ``method_run`` record (see
    :func:`~repro.experiments.harness.run_method_table`).
    """
    return run_method_table(
        title="Table 2: performance comparison on real-world data sets",
        workloads=default_workloads(scale),
        seeds=seeds,
        tracer=tracer,
    )


#: the method panels of Fig. 1 (b/c methods report unreliability scores,
#: handled by each resolver's ``scores_are_unreliability`` flag)
FIG1_METHODS = ("CRH", "GTM", "AccuSim", "3-Estimates", "PooledInvestment")


@dataclass
class Fig1Result:
    """Estimated-vs-true source reliability on the weather data."""

    comparisons: list[ReliabilityComparison]

    def render(self) -> str:
        """Render the Fig. 1 series and correlation summary."""
        sources = [str(s) for s in self.comparisons[0].source_ids]
        series = {"ground truth": list(self.comparisons[0].true_scores)}
        for comparison in self.comparisons:
            series[comparison.method] = list(comparison.estimated_scores)
        header = render_series(
            "Source", sources, series,
            title=("Fig. 1: source reliability degrees (min-max normalized)"
                   " vs ground truth on weather data"),
        )
        corr = render_table(
            ["Method", "Pearson r", "Spearman rho"],
            [[c.method, c.pearson, c.spearman] for c in self.comparisons],
            title="Reliability recovery correlation with ground truth",
        )
        return header + "\n\n" + corr

    def comparison(self, method: str) -> ReliabilityComparison:
        """One method's reliability comparison, by name."""
        for entry in self.comparisons:
            if entry.method == method:
                return entry
        raise KeyError(method)


def run_fig1(seed: int = 1, methods=FIG1_METHODS) -> Fig1Result:
    """Regenerate Fig. 1: reliability recovery of CRH vs baselines."""
    generated = generate_weather_dataset(WeatherConfig(seed=seed))
    comparisons = []
    for method in methods:
        resolver = resolver_by_name(method)
        result = resolver.fit(generated.dataset)
        comparisons.append(compare_reliability(
            method=method,
            dataset=generated.dataset,
            truth=generated.truth,
            estimated=result.weights,
            invert=resolver.scores_are_unreliability,
        ))
    return Fig1Result(comparisons=comparisons)
