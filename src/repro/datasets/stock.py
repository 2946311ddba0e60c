"""Synthetic stock-quote integration workload (Section 3.2.1).

The paper uses the deep-web stock corpus of Li et al. [11]: 1,000 stock
symbols observed on every July 2011 trading day by 55 sources, with 16
properties.  Following the paper's heterogeneous treatment, *volume*,
*shares outstanding* and *market cap* are continuous and the remaining 13
price-like properties are categorical "facts" (exact string agreement is
what counts — a price of 26.74 is simply a different fact than 26.75).

The generator reproduces the corpus's structure:

* per-symbol geometric-Brownian daily price processes, from which the 13
  fact properties (open/close/high/low/last, changes, ratios, 52-week
  bounds, ...) are derived and formatted as strings;
* 55 sources with a long-tailed error distribution: most are accurate,
  a few are sloppy (report a stale or tick-perturbed price) — the regime
  where source-reliability estimation beats voting;
* heavy-tailed continuous properties (volume in the millions, market cap
  in the billions) that make *outlier robustness* matter, which is why
  the paper's CRH uses the weighted median there;
* ~35% missing observations (matching 11.7M observations over
  55 x 326k entries), and ground truth on ~9% of entries.

Objects are (symbol, day) pairs; the day index is the stream timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.encoding import MISSING_CODE, CategoricalCodec
from ..data.schema import DatasetSchema, categorical, continuous
from ..data.table import (
    MultiSourceDataset,
    PropertyObservations,
    TruthTable,
)
from .base import GeneratedData

#: The 13 price-like properties treated as categorical facts.
FACT_PROPERTIES = (
    "last_price", "open_price", "close_price", "high", "low",
    "change_amount", "change_pct", "eps", "pe_ratio", "dividend",
    "yield_pct", "wk52_high", "wk52_low",
)
#: The 3 continuous properties (the paper's explicit list).
CONTINUOUS_PROPERTIES = ("volume", "shares_outstanding", "market_cap")


@dataclass(frozen=True)
class StockConfig:
    """Knobs of the stock workload.

    Paper scale is ``n_symbols=1000, n_days=21, n_sources=55``; defaults
    are scaled down so the Table 2 benchmark finishes in seconds.
    """

    n_symbols: int = 100
    n_days: int = 10
    n_sources: int = 55
    #: per-source missing-observation rate range (deep-web coverage varies
    #: hugely between aggregators); overall mean ~0.35 matches Table 1
    missing_rate_range: tuple[float, float] = (0.15, 0.55)
    #: number of upstream feeds the sources copy from.  Feed 0 is the
    #: official (truth-aligned) feed; the others err independently.
    #: Copying clusters are what make wrong values *correlated* in the
    #: real deep-web stock corpus — majority voting elects a stale feed's
    #: value whenever enough clusters go stale together, which is the
    #: regime where source-reliability estimation is required.
    n_feeds: int = 8
    #: fraction of sources wired to the official feed
    official_fraction: float = 0.15
    #: probability that a wrong feed value is a *stale snapshot* (the
    #: previous trading day's value, shared across all stale feeds)
    #: rather than an independent perturbation
    stale_bias: float = 0.75
    #: per-source transcription error rate on top of the feed value
    transcription_error: float = 0.02
    #: probability scale of unit mix-ups on continuous properties
    #: (volume in thousands, market cap in millions): the gross outliers
    #: that the weighted median absorbs and mean/squared losses do not
    unit_error_rate: float = 0.015
    truth_fraction: float = 0.09
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.n_symbols, self.n_days, self.n_sources) < 1:
            raise ValueError("sizes must be positive")
        lo, hi = self.missing_rate_range
        if not 0 <= lo <= hi < 1:
            raise ValueError(
                "missing_rate_range must satisfy 0 <= lo <= hi < 1"
            )
        if not 0 <= self.stale_bias <= 1:
            raise ValueError("stale_bias must be in [0, 1]")
        if self.n_feeds < 2:
            raise ValueError("need at least an official and one other feed")
        if not 0 < self.official_fraction < 1:
            raise ValueError("official_fraction must be in (0, 1)")
        if not 0 <= self.transcription_error < 1:
            raise ValueError("transcription_error must be in [0, 1)")
        if not 0 <= self.unit_error_rate < 1:
            raise ValueError("unit_error_rate must be in [0, 1)")
        if not 0 < self.truth_fraction <= 1:
            raise ValueError("truth_fraction must be in (0, 1]")


def stock_schema() -> DatasetSchema:
    """The 16-property stock schema (3 continuous, 13 fact-like)."""
    props = [continuous(name) for name in CONTINUOUS_PROPERTIES]
    props += [categorical(name) for name in FACT_PROPERTIES]
    return DatasetSchema.of(*props)


def _fmt(value: float, decimals: int = 2) -> str:
    return f"{value:.{decimals}f}"


def _encode_formatted(codec: CategoricalCodec,
                      values: np.ndarray) -> np.ndarray:
    """``codec.encode(_fmt(v))`` for every ``v`` of ``values``, as int32.

    Bit-identical to encoding value by value in row-major order, but
    formats each distinct float once: a fact property holds ~20x fewer
    distinct values than observations.  Values are told apart by bit
    pattern, so ``-0.0`` (label ``"-0.00"``) never merges with ``0.0``;
    distinct floats that format alike (``1.001``, ``1.004``) still share
    one label through the codec.  Labels are encoded in the order their
    first value appears, which is the order the per-value loop would
    learn them in, so the codec's label order is unchanged too.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    distinct, first, inverse = np.unique(
        flat.view(np.int64), return_index=True, return_inverse=True)
    codes = np.empty(distinct.shape[0], dtype=np.int32)
    seen_order = np.argsort(first)
    for slot, value in zip(seen_order.tolist(),
                           flat[first[seen_order]].tolist()):
        codes[slot] = codec.encode(_fmt(value))
    return codes[inverse].reshape(np.shape(values))


def generate_stock_dataset(
    config: StockConfig | None = None,
    seed: int | None = None,
) -> GeneratedData:
    """Generate the stock workload; see module docstring."""
    if config is None:
        config = StockConfig()
    if seed is not None:
        config = StockConfig(**{**config.__dict__, "seed": seed})
    rng = np.random.default_rng(config.seed)
    schema = stock_schema()
    n_symbols, n_days, k = config.n_symbols, config.n_days, config.n_sources
    n = n_symbols * n_days

    # --- true per-symbol processes -----------------------------------
    start_price = rng.lognormal(3.3, 0.9, n_symbols)          # ~$27 median
    daily_return = rng.normal(0.0, 0.02, (n_symbols, n_days))
    price = start_price[:, None] * np.exp(np.cumsum(daily_return, axis=1))
    open_price = price * np.exp(rng.normal(0, 0.005, price.shape))
    high = np.maximum(price, open_price) * np.exp(
        np.abs(rng.normal(0, 0.008, price.shape))
    )
    low = np.minimum(price, open_price) * np.exp(
        -np.abs(rng.normal(0, 0.008, price.shape))
    )
    prev_close = np.concatenate(
        [open_price[:, :1], price[:, :-1]], axis=1
    )
    change_amount = price - prev_close
    with np.errstate(divide="ignore", invalid="ignore"):
        change_pct = 100.0 * change_amount / prev_close
    eps = rng.lognormal(0.5, 0.8, n_symbols)
    pe_ratio = price / eps[:, None]
    dividend = np.where(
        rng.random(n_symbols) < 0.55, rng.lognormal(-0.5, 0.7, n_symbols), 0.0
    )
    yield_pct = 100.0 * dividend[:, None] / price
    wk52_high = price.max(axis=1, keepdims=True) * np.exp(
        np.abs(rng.normal(0, 0.15, (n_symbols, 1)))
    ) * np.ones_like(price)
    wk52_low = price.min(axis=1, keepdims=True) * np.exp(
        -np.abs(rng.normal(0, 0.15, (n_symbols, 1)))
    ) * np.ones_like(price)

    shares = rng.lognormal(17.5, 1.2, n_symbols)               # ~40M median
    shares_daily = np.repeat(shares[:, None], n_days, axis=1)
    volume = (shares[:, None] * rng.lognormal(-4.5, 0.9,
                                              (n_symbols, n_days)))
    market_cap = shares_daily * price

    fact_truth_values = {
        "last_price": price, "open_price": open_price,
        "close_price": prev_close, "high": high, "low": low,
        "change_amount": change_amount, "change_pct": change_pct,
        "eps": np.repeat(eps[:, None], n_days, axis=1),
        "pe_ratio": pe_ratio,
        "dividend": np.repeat(dividend[:, None], n_days, axis=1),
        "yield_pct": yield_pct, "wk52_high": wk52_high, "wk52_low": wk52_low,
    }
    continuous_truth_values = {
        "volume": np.round(volume), "shares_outstanding": shares_daily,
        "market_cap": np.round(market_cap),
    }

    object_ids = [
        f"SYM{s:04d}/{d:02d}" for s in range(n_symbols) for d in range(n_days)
    ]
    timestamps = np.tile(np.arange(n_days), n_symbols)

    # --- upstream feeds and source wiring -----------------------------
    # Sources copy one of a handful of upstream feeds.  Feed 0 is the
    # official feed (always correct); every other feed errs per entry
    # with its own rate, usually by serving the shared stale snapshot.
    n_feeds = config.n_feeds
    n_official = max(1, round(config.official_fraction * k))
    feed_of_source = np.concatenate([
        np.zeros(n_official, dtype=np.int64),
        rng.integers(1, n_feeds, k - n_official),
    ])
    feed_error = np.concatenate([
        [0.005],
        np.sort(np.clip(rng.beta(1.6, 3.0, n_feeds - 1), 0.05, 0.9)),
    ])
    feed_noise = 0.01 + 0.6 * feed_error          # continuous noise factor
    transcription = rng.uniform(0.2, 1.8, k) * config.transcription_error
    unit_error = config.unit_error_rate * np.clip(
        feed_error[feed_of_source] + transcription, 0.0, 1.0
    )
    source_missing = rng.uniform(*config.missing_rate_range, size=k)
    # Generative per-source unreliability (the tests' oracle).
    error_scale = feed_error[feed_of_source] + transcription

    def stale_copy(truth_grid: np.ndarray) -> np.ndarray:
        """Previous trading day's values — the shared stale snapshot."""
        return np.concatenate(
            [truth_grid[:, :1], truth_grid[:, :-1]], axis=1
        ).ravel()

    codecs: dict[str, CategoricalCodec] = {
        name: CategoricalCodec() for name in FACT_PROPERTIES
    }
    properties: list[PropertyObservations] = []

    for prop in schema:
        missing = rng.random((k, n)) < source_missing[:, None]
        if prop.is_continuous:
            truth_flat = continuous_truth_values[prop.name].ravel()
            # Feed-level multiplicative noise, shared by the feed's copiers.
            feed_values = np.empty((n_feeds, n))
            for f in range(n_feeds):
                factor = np.exp(rng.normal(0.0, feed_noise[f], n))
                feed_values[f] = truth_flat * factor
            matrix = np.empty((k, n))
            for src in range(k):
                observed = feed_values[feed_of_source[src]]
                # Unit mix-ups (thousands vs units, millions vs billions):
                # the gross outliers the weighted median absorbs.
                mixed_up = rng.random(n) < unit_error[src]
                if mixed_up.any():
                    scale = np.where(rng.random(n) < 0.5, 1e-2, 1e2)
                    observed = np.where(mixed_up, observed * scale, observed)
                matrix[src] = np.round(observed)
            matrix[missing] = np.nan
            properties.append(
                PropertyObservations(schema=prop, values=matrix)
            )
        else:
            truth_flat = fact_truth_values[prop.name].ravel()
            stale_flat = stale_copy(fact_truth_values[prop.name])
            codec = codecs[prop.name]
            # Feed-level fact values: wrong feeds mostly serve the shared
            # stale snapshot; several feeds going stale together outvote
            # the official feed — voting's failure mode in this corpus.
            feed_values = np.empty((n_feeds, n))
            for f in range(n_feeds):
                wrong = rng.random(n) < feed_error[f]
                stale = rng.random(n) < config.stale_bias
                ticks = rng.integers(1, 25, n) * np.where(
                    rng.random(n) < 0.5, -0.01, 0.01
                )
                perturbed = truth_flat + ticks * np.maximum(
                    np.abs(truth_flat), 1.0
                )
                feed_values[f] = np.where(
                    wrong, np.where(stale, stale_flat, perturbed), truth_flat
                )
            observations = np.empty((k, n))
            for src in range(k):
                observed = feed_values[feed_of_source[src]]
                typo = rng.random(n) < transcription[src]
                if typo.any():
                    ticks = rng.integers(1, 10, n) * np.where(
                        rng.random(n) < 0.5, -0.01, 0.01
                    )
                    observed = np.where(
                        typo,
                        observed + ticks * np.maximum(np.abs(observed), 1.0),
                        observed,
                    )
                observations[src] = observed
            matrix = _encode_formatted(codec, observations)
            matrix[missing] = MISSING_CODE
            properties.append(
                PropertyObservations(schema=prop, values=matrix, codec=codec)
            )

    dataset = MultiSourceDataset(
        schema=schema,
        source_ids=[f"stock-site-{i:02d}" for i in range(k)],
        object_ids=object_ids,
        properties=properties,
        object_timestamps=timestamps,
    )

    # --- partial ground truth -----------------------------------------
    n_labeled = max(1, round(config.truth_fraction * n))
    labeled = np.zeros(n, dtype=bool)
    labeled[rng.choice(n, size=n_labeled, replace=False)] = True
    columns: list[np.ndarray] = []
    for prop in schema:
        if prop.is_continuous:
            col = continuous_truth_values[prop.name].ravel().astype(float)
            columns.append(np.where(labeled, col, np.nan))
        else:
            codec = codecs[prop.name]
            codes = _encode_formatted(
                codec, fact_truth_values[prop.name].ravel()
            )
            columns.append(
                np.where(labeled, codes, MISSING_CODE).astype(np.int32)
            )
    truth = TruthTable(
        schema=schema, object_ids=object_ids, columns=columns, codecs=codecs,
    )
    return GeneratedData(
        dataset=dataset, truth=truth, source_error_scale=error_scale,
        extras={"feed_of_source": feed_of_source},
    )
