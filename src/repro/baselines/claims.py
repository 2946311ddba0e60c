"""Claim-graph substrate for fact-based truth-discovery baselines.

Investment, PooledInvestment, 2/3-Estimates, TruthFinder and AccuSim were
all designed for *facts*: per entry, each distinct claimed value is a fact,
each source's observation is a claim on one fact, and claiming one fact
implicitly disputes the entry's other facts.  Section 3.1.2 of the CRH
paper runs them on heterogeneous data "by regarding continuous
observations as facts too"; this module builds exactly that view from a
:class:`~repro.data.table.MultiSourceDataset`.

The graph is fully columnar (flat numpy arrays plus ``bincount``-style
group reductions) so the baselines stay vectorized:

* **claims**: ``claim_source[c]`` claims fact ``claim_fact[c]``;
* **facts**: fact ``f`` belongs to entry ``fact_entry[f]`` and carries the
  claimed value (a float for continuous properties, a category code for
  categorical ones);
* **entries**: entry ``e`` is the (object, property) pair
  ``(entry_object[e], entry_property[e])``.

Facts are numbered so that facts of the same entry are contiguous,
enabling per-entry segment reductions via ``entry_fact_start``.

The graph is built from *claim views* in canonical (object-major,
source-minor) order, so a dense dataset and its sparse
:class:`~repro.data.claims_matrix.ClaimsMatrix` counterpart produce
byte-identical graphs — and therefore bit-identical baseline results —
on the dense and sparse backends.  The fact-graph iterations themselves
have no worker/chunk formulation; resolvers built on this module
degrade (traced) to inline sparse execution on the process and mmap
backends, see :func:`claim_graph_session`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.encoding import MISSING_CODE
from ..data.table import TruthTable


@dataclass(frozen=True)
class ClaimGraph:
    """Columnar claim/fact/entry view of a multi-source dataset."""

    n_sources: int
    n_entries: int
    n_facts: int
    #: (C,) source index of every claim (``int64``, so the per-round
    #: gathers and ``bincount`` calls index it without a cast)
    claim_source: np.ndarray
    #: (C,) fact index of every claim
    claim_fact: np.ndarray
    #: (F,) entry index of every fact (facts sorted by entry)
    fact_entry: np.ndarray
    #: (F,) claimed value: float for continuous facts, code for categorical
    fact_value: np.ndarray
    #: (F,) True where the fact belongs to a continuous property
    fact_is_continuous: np.ndarray
    #: (E,) property index of every entry
    entry_property: np.ndarray
    #: (E,) object index of every entry
    entry_object: np.ndarray
    #: (E + 1,) fact-range boundaries: facts of entry e are
    #: ``fact_entry[entry_fact_start[e]:entry_fact_start[e + 1]]``
    entry_fact_start: np.ndarray

    # ------------------------------------------------------------------
    # group reductions
    # ------------------------------------------------------------------
    @property
    def n_claims(self) -> int:
        return self.claim_source.size

    def claims_per_source(self) -> np.ndarray:
        """Number of claims made by each source."""
        return np.bincount(self.claim_source, minlength=self.n_sources)

    def claimants_per_fact(self) -> np.ndarray:
        """Number of sources claiming each fact."""
        return np.bincount(self.claim_fact, minlength=self.n_facts)

    def claimants_per_entry(self) -> np.ndarray:
        """Number of claims made about each entry."""
        return np.bincount(self.fact_entry[self.claim_fact],
                           minlength=self.n_entries)

    def facts_per_entry(self) -> np.ndarray:
        """Number of distinct claimed values per entry."""
        return np.diff(self.entry_fact_start)

    def sum_claims_by_fact(self, per_claim: np.ndarray) -> np.ndarray:
        """Sum a per-claim quantity over each fact's claimants."""
        return np.bincount(self.claim_fact, weights=per_claim,
                           minlength=self.n_facts)

    def sum_claims_by_source(self, per_claim: np.ndarray) -> np.ndarray:
        """Sum a per-claim quantity over each source's claims."""
        return np.bincount(self.claim_source, weights=per_claim,
                           minlength=self.n_sources)

    def sum_facts_by_entry(self, per_fact: np.ndarray) -> np.ndarray:
        """Sum a per-fact quantity over each entry's facts."""
        return np.bincount(self.fact_entry, weights=per_fact,
                           minlength=self.n_entries)

    def argmax_fact_per_entry(self, fact_scores: np.ndarray) -> np.ndarray:
        """Index of the highest-scoring fact of every entry.

        Deterministic: ties resolve to the fact with the larger index
        within the entry's contiguous block.
        """
        order = np.lexsort((fact_scores, self.fact_entry))
        # Facts are grouped by entry; the last position of each group after
        # the secondary sort on score is that entry's argmax.
        last_of_entry = self.entry_fact_start[1:] - 1
        return order[last_of_entry]

    def entry_similarity_sums(self, fact_scores: np.ndarray,
                              bandwidth: float = 1.0) -> np.ndarray:
        """Similarity-weighted score mass from the *other* facts per fact.

        For continuous facts, ``sim(f, f') = exp(-|v_f - v_f'| / (b * s_e))``
        where ``s_e`` is the std of the entry's claimed values — the
        standard implication function used by TruthFinder/AccuSim for
        numeric values.  Categorical facts get zero (distinct categories do
        not imply each other).  Returns, for every fact,
        ``sum_{f' != f, same entry} sim(f, f') * fact_scores[f']``.

        Vectorized over all eligible entries at once: the ``(f_e, f_e)``
        similarity matrices are flattened into one pair expansion of
        total size ``sum_e f_e^2`` and reduced with a single weighted
        ``bincount`` — no per-entry Python loop.
        """
        result = np.zeros(self.n_facts)
        sizes = self.facts_per_entry().astype(np.int64)
        first_fact = self.entry_fact_start[:-1]
        eligible = np.flatnonzero(
            (sizes >= 2)
            & self.fact_is_continuous[np.minimum(first_fact,
                                                 max(self.n_facts - 1, 0))]
        )
        if eligible.size == 0:
            return result
        # Per-entry fact-value std (ddof=0, two-pass), non-positive -> 1.
        counts = np.maximum(sizes.astype(np.float64), 1.0)
        mean = (np.bincount(self.fact_entry, weights=self.fact_value,
                            minlength=self.n_entries) / counts)
        centered_sq = (self.fact_value - mean[self.fact_entry]) ** 2
        variance = (np.bincount(self.fact_entry, weights=centered_sq,
                                minlength=self.n_entries) / counts)
        scale = np.sqrt(variance)
        scale = np.where(scale > 0, scale, 1.0)
        # Pair expansion: for entry e with f_e facts, f_e^2 (row, col)
        # pairs laid out row-major, exactly the per-entry sim @ scores.
        pair_counts = sizes[eligible] * sizes[eligible]
        offsets = np.concatenate(([0], np.cumsum(pair_counts)))
        within = (np.arange(offsets[-1], dtype=np.int64)
                  - np.repeat(offsets[:-1], pair_counts))
        entry_rep = np.repeat(np.arange(eligible.size), pair_counts)
        size_rep = sizes[eligible][entry_rep]
        start_rep = first_fact[eligible][entry_rep]
        rows = start_rep + within // size_rep
        cols = start_rep + within % size_rep
        sim = np.exp(
            -np.abs(self.fact_value[rows] - self.fact_value[cols])
            / (bandwidth * scale[eligible][entry_rep])
        )
        contribution = np.where(rows != cols,
                                sim * fact_scores[cols], 0.0)
        result += np.bincount(rows, weights=contribution,
                              minlength=self.n_facts)
        return result


def build_claim_graph(dataset) -> ClaimGraph:
    """Flatten a dataset into a :class:`ClaimGraph` (facts = claimed values).

    ``dataset`` may be a dense
    :class:`~repro.data.table.MultiSourceDataset` or a sparse
    :class:`~repro.data.claims_matrix.ClaimsMatrix`: claims are read
    through each property's canonical claim view, so both
    representations yield byte-identical graphs.
    """
    n_objects = dataset.n_objects
    all_entry_keys: list[np.ndarray] = []
    all_sources: list[np.ndarray] = []
    all_value_codes: list[np.ndarray] = []
    all_values: list[np.ndarray] = []
    all_is_continuous: list[np.ndarray] = []

    for m, prop in enumerate(dataset.properties):
        view = prop.claim_view()
        objects = np.asarray(view.object_idx).astype(np.int64)
        sources = np.asarray(view.source_idx).astype(np.int64)
        if prop.schema.is_continuous:
            values = np.asarray(view.values, dtype=np.float64)
            unique_vals, value_codes = np.unique(values, return_inverse=True)
            numeric = unique_vals[value_codes]
            continuous = np.ones(values.size, dtype=bool)
        else:
            value_codes = np.asarray(view.values).astype(np.int64)
            numeric = value_codes.astype(np.float64)
            continuous = np.zeros(value_codes.size, dtype=bool)
        all_entry_keys.append(np.int64(m) * n_objects + objects)
        all_sources.append(sources)
        all_value_codes.append(value_codes.astype(np.int64))
        all_values.append(numeric.astype(np.float64))
        all_is_continuous.append(continuous)

    entry_keys = np.concatenate(all_entry_keys)
    sources = np.concatenate(all_sources)
    value_codes = np.concatenate(all_value_codes)
    numeric_values = np.concatenate(all_values)
    continuous_mask = np.concatenate(all_is_continuous)

    unique_entries, entry_of_claim = np.unique(entry_keys,
                                               return_inverse=True)
    n_entries = unique_entries.size
    entry_property = (unique_entries // n_objects).astype(np.int32)
    entry_object = (unique_entries % n_objects).astype(np.int32)

    # Facts: unique (entry, value-code) pairs; the key arithmetic stays
    # inside int64 because value codes are bounded by the claim count.
    n_value_codes = int(value_codes.max()) + 1 if value_codes.size else 1
    fact_keys = entry_of_claim.astype(np.int64) * n_value_codes + value_codes
    unique_facts, first_claim, fact_of_claim = np.unique(
        fact_keys, return_index=True, return_inverse=True
    )
    fact_entry = (unique_facts // n_value_codes).astype(np.int64)
    fact_value = numeric_values[first_claim]
    fact_is_continuous = continuous_mask[first_claim]

    # np.unique returns fact keys sorted, and the keys are entry-major, so
    # facts are already contiguous per entry.
    counts = np.bincount(fact_entry, minlength=n_entries)
    entry_fact_start = np.concatenate(([0], np.cumsum(counts)))

    arrays = dict(
        claim_source=sources,
        claim_fact=fact_of_claim.astype(np.int64),
        fact_entry=fact_entry,
        fact_value=fact_value,
        fact_is_continuous=fact_is_continuous,
        entry_property=entry_property,
        entry_object=entry_object,
        entry_fact_start=entry_fact_start.astype(np.int64),
    )
    # One graph serves every resolver fitted on the dataset (see
    # claim_graph_session), so no resolver may write into it.
    for array in arrays.values():
        array.flags.writeable = False
    return ClaimGraph(
        n_sources=dataset.n_sources,
        n_entries=n_entries,
        n_facts=unique_facts.size,
        **arrays,
    )


def claim_graph_session(resolver, dataset):
    """Resolve a fact-graph resolver's backend and fetch its graph.

    Returns ``(session, graph)``.  Fact-graph iterations (Investment,
    2/3-Estimates, TruthFinder, AccuSim) walk the whole claim/fact
    arrays every round and have no worker/chunk formulation, so a
    process/mmap backend request degrades immediately to inline sparse
    execution with that reason traced — the graph is then built from
    the resolved data's claim views (dense or sparse, identical
    bytes).  The graph depends only on the claims, so it is built once
    per resolved dataset object and cached on it, like the claim views
    it is built from; every fact-graph resolver fitted on that object
    shares it read-only.  The caller must ``session.close()`` when
    done and ``session.stamp(result)`` before returning.
    """
    session = resolver._session(dataset)
    session.require_inline(
        f"{resolver.name}'s fact-graph iteration walks global "
        "claim/fact arrays and has no worker/chunk kernels"
    )
    data = session.data
    graph = getattr(data, "_claim_graph_cache", None)
    if graph is None:
        graph = build_claim_graph(data)
        object.__setattr__(data, "_claim_graph_cache", graph)
    return session, graph


def winners_to_truth_table(graph: ClaimGraph,
                           dataset,
                           winning_facts: np.ndarray) -> TruthTable:
    """Decode the per-entry winning facts back into a truth table.

    ``dataset`` may be dense or a claims matrix — only schema, object
    ids and codecs are read.
    """
    columns: list[np.ndarray] = []
    for prop in dataset.schema:
        if prop.uses_codec:
            columns.append(
                np.full(dataset.n_objects, MISSING_CODE, dtype=np.int32)
            )
        else:
            columns.append(np.full(dataset.n_objects, np.nan))
    entries = np.arange(graph.n_entries)
    props = graph.entry_property[entries]
    objects = graph.entry_object[entries]
    values = graph.fact_value[winning_facts]
    for m in range(len(dataset.schema)):
        mask = props == m
        if dataset.schema[m].uses_codec:
            columns[m][objects[mask]] = values[mask].astype(np.int32)
        else:
            columns[m][objects[mask]] = values[mask]
    return TruthTable(
        schema=dataset.schema,
        object_ids=dataset.object_ids,
        columns=columns,
        codecs=dataset.codecs(),
    )
