"""Prewarm: the resident lines a run starts from, computed once.

Measurement starts after a prewarm step that stands in for the
initialization phase the paper skips: each core's prewarm list (its
resident private data, hottest first) is installed in E state, and the
Supplier Predictors are trained on the resulting supplier lines
(Section 4.3).  Both simulation cores start from the same prewarm
outcome, so it is decided here, once, as a :class:`PrewarmImage`:

* the final cache contents - per core, per set, in LRU order, with
  each line's state (every line is E unless an Exact conflict
  downgrade demoted it to SL; the version is always 0);
* the per-cache ``fills``/``evictions`` counters (prewarm lines are
  never dirty, so no eviction is a dirty one);
* the machine-wide holder/supplier indexes;
* the predictor training stream, or - for the Exact predictor, whose
  conflict downgrades feed back into the cache contents - the trained
  predictor state itself plus the ordered ``(cmp, address)`` list of
  the downgrades the walk performed.

:func:`prewarm_image` memoizes images in one bounded process-level
store keyed on exactly what the walk reads: the prewarm address lists
(by content), ``cores_per_cmp``, the cache geometry and, for Exact
only, the predictor configuration.  Every cell of a matrix column -
and an in-memory trace and its ``file:`` replay, or two think-time
rungs of one profile - therefore shares one walk.  The cores only
*install* an image: ``soa`` hands the per-set tuples to its lazy
set materialization, the ``object`` core builds its ``CacheLine``
sets eagerly (see ``RingMultiprocessor._install_prewarm``), and both
train their predictors through :func:`train_predictors`.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coherence.protocol import CoherenceError
from repro.coherence.states import LineState
from repro.core.predictors import SupplierPredictor, build_predictor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import MachineConfig, PredictorConfig

__all__ = ["PrewarmImage", "prewarm_image", "train_predictors"]

#: One cache set of an image: the resident addresses in LRU order and
#: their states, or ``None`` when every line of the set is E.
ImageSet = Tuple[Tuple[int, ...], Optional[Tuple[LineState, ...]]]


class PrewarmImage:
    """The outcome of one prewarm walk (see the module docstring).

    Shared read-only by every machine that installs it, apart from
    ``predictor_snapshots``, which caches trained predictor state per
    :class:`~repro.config.PredictorConfig` so a configuration that
    recurs skips even the training replay.
    """

    __slots__ = (
        "sets",
        "fills",
        "evictions",
        "holder_count",
        "supplier_of",
        "ops",
        "downgrades",
        "predictor_snapshots",
    )

    def __init__(
        self,
        sets: List[Dict[int, ImageSet]],
        fills: List[int],
        evictions: List[int],
        holder_count: Dict[int, int],
        supplier_of: Dict[int, Tuple[int, int]],
        ops: Optional[List[List[int]]],
        downgrades: List[Tuple[int, int]],
    ) -> None:
        #: Per core: set index -> resident lines (non-empty sets only).
        self.sets = sets
        self.fills = fills
        self.evictions = evictions
        self.holder_count = holder_count
        self.supplier_of = supplier_of
        #: Per core: the predictor training stream (``address`` for
        #: ``insert(address)``, ``~address`` for ``remove(address)``);
        #: ``None`` for Exact, whose trained state is always snapshotted.
        self.ops = ops
        #: ``(cmp_id, address)`` of every Exact conflict downgrade, in
        #: walk order.
        self.downgrades = downgrades
        self.predictor_snapshots: Dict["PredictorConfig", List[object]] = {}


_ImageKey = Tuple[bytes, int, int, int, Optional["PredictorConfig"]]

#: Process-level image store, least recently used first.  A matrix
#: keeps up to six images live at once (three workloads, each with one
#: image shared by every non-Exact predictor and one Exact image).
_IMAGES: "OrderedDict[_ImageKey, PrewarmImage]" = OrderedDict()
_IMAGE_LIMIT = 8


def _image_key(
    prewarm: Sequence[Sequence[int]], config: "MachineConfig"
) -> _ImageKey:
    digest = hashlib.blake2b(digest_size=16)
    for lines in prewarm:
        digest.update(len(lines).to_bytes(8, "little"))
        digest.update(np.asarray(lines, dtype=np.int64).tobytes())
    predictor = config.predictor
    return (
        digest.digest(),
        config.cores_per_cmp,
        config.cache.num_sets,
        config.cache.associativity,
        predictor if predictor.kind == "exact" else None,
    )


def prewarm_image(
    prewarm: Sequence[Sequence[int]], config: "MachineConfig"
) -> PrewarmImage:
    """The image of ``prewarm`` installed on ``config``'s machine,
    walked on first use and served from the process memo after."""
    key = _image_key(prewarm, config)
    image = _IMAGES.get(key)
    if image is None:
        image = _walk(prewarm, config)
        _IMAGES[key] = image
        while len(_IMAGES) > _IMAGE_LIMIT:
            _IMAGES.popitem(last=False)
    else:
        _IMAGES.move_to_end(key)
    return image


def train_predictors(
    image: PrewarmImage,
    config: "PredictorConfig",
    predictors: Sequence[SupplierPredictor],
    cores_per_cmp: int,
) -> None:
    """Bring freshly built per-CMP ``predictors`` to their prewarmed
    state: restore the snapshot cached for ``config``, or replay the
    training stream through the real predictor methods (which also
    reproduces their update counters) and cache the result."""
    if config.kind in ("none", "perfect"):
        return
    snapshots = image.predictor_snapshots.get(config)
    if snapshots is not None:
        for predictor, snapshot in zip(predictors, snapshots):
            predictor.prewarm_restore(snapshot)
        return
    assert image.ops is not None, "Exact images always carry a snapshot"
    for core_id, core_ops in enumerate(image.ops):
        predictor = predictors[core_id // cores_per_cmp]
        insert = predictor.insert
        remove = predictor.remove
        for op in core_ops:
            if op >= 0:
                insert(op)
            else:
                remove(~op)
    _store_snapshots(image, config, predictors)


def _store_snapshots(
    image: PrewarmImage,
    config: "PredictorConfig",
    predictors: Sequence[SupplierPredictor],
) -> None:
    snapshots: List[object] = []
    for predictor in predictors:
        snapshot = predictor.prewarm_snapshot()
        if snapshot is None:
            return
        snapshots.append(snapshot)
    image.predictor_snapshots[config] = snapshots


def _walk(
    prewarm: Sequence[Sequence[int]], config: "MachineConfig"
) -> PrewarmImage:
    """Fill every prewarm line, hottest last, with the observable
    effects of a generic ``cache.fill(address, E)`` per line (asserted
    by ``test_prewarm_fast_path_matches_generic_fill``): LRU eviction,
    supplier registration, holder counts and predictor training.

    Only Exact's training is performed here, on walk-local predictors,
    because its conflict downgrades change cache state mid-walk; any
    other predictor's training is recorded as a stream for
    :func:`train_predictors`.
    """
    cpc = config.cores_per_cmp
    num_sets = config.cache.num_sets
    associativity = config.cache.associativity
    exact = config.predictor.kind == "exact"
    state_e = LineState.E
    state_sl = LineState.SL
    core_sets: List[List[Dict[int, LineState]]] = [
        [{} for _ in range(num_sets)] for _ in prewarm
    ]
    fills = [0] * len(prewarm)
    evictions = [0] * len(prewarm)
    supplier_of: Dict[int, Tuple[int, int]] = {}
    holder_count: Dict[int, int] = {}
    downgrades: List[Tuple[int, int]] = []
    ops: List[List[int]] = []
    predictors: List[SupplierPredictor] = []

    def make_downgrade(cmp_id: int) -> Callable[[int], None]:
        """Exact conflict downgrade (``DataPathModel``'s handler): the
        CMP's supplier copy drops to SL - never a writeback, since
        prewarm lines are clean - and loses its supplier role."""
        base = cmp_id * cpc
        remove = predictors[cmp_id].remove

        def downgrade(address: int) -> None:
            set_index = address % num_sets
            for local in range(cpc):
                cache_set = core_sets[base + local][set_index]
                if cache_set.get(address) is state_e:
                    cache_set[address] = state_sl
                    remove(address)
                    if supplier_of.get(address) == (cmp_id, local):
                        del supplier_of[address]
                    downgrades.append((cmp_id, address))
                    return

        return downgrade

    if exact:
        predictors = [
            build_predictor(config.predictor)
            for _ in range(len(prewarm) // cpc)
        ]
        for cmp_id, predictor in enumerate(predictors):
            predictor.set_downgrade_callback(  # type: ignore[attr-defined]
                make_downgrade(cmp_id)
            )

    for core_id, lines in enumerate(prewarm):
        cmp_id, local_id = divmod(core_id, cpc)
        home = (cmp_id, local_id)
        sets = core_sets[core_id]
        # Train Exact's walk-local predictor, or record the stream.
        insert: Callable[[int], None]
        remove: Callable[[int], None]
        if exact:
            insert = predictors[cmp_id].insert
            remove = predictors[cmp_id].remove
        else:
            core_ops: List[int] = []
            ops.append(core_ops)
            insert = core_ops.append
            remove = partial(_record_removal, core_ops)
        core_fills = core_evictions = 0
        for address in reversed(lines):
            cache_set = sets[address % num_sets]
            state = cache_set.pop(address, None)
            if state is not None:
                # Duplicate line: fill updates it in place (to MRU, and
                # back to a supplier if a downgrade had demoted it).
                cache_set[address] = state_e
                if state is state_sl:
                    existing = supplier_of.setdefault(address, home)
                    if existing != home:
                        raise _gain_conflict(address, home, existing)
                    insert(address)
                continue
            if len(cache_set) >= associativity:
                victim = next(iter(cache_set))
                if cache_set.pop(victim) is state_e:
                    # Supplier loss: predictor first, then registry.
                    remove(victim)
                    if supplier_of.get(victim) == home:
                        del supplier_of[victim]
                core_evictions += 1
                count = holder_count[victim] - 1
                if count:
                    holder_count[victim] = count
                else:
                    del holder_count[victim]
            cache_set[address] = state_e
            core_fills += 1
            holder_count[address] = holder_count.get(address, 0) + 1
            # Register the supplier before training the predictor: an
            # Exact conflict downgrade must see a consistent index.
            existing = supplier_of.setdefault(address, home)
            if existing != home:
                raise _gain_conflict(address, home, existing)
            insert(address)
        fills[core_id] = core_fills
        evictions[core_id] = core_evictions

    image = PrewarmImage(
        [
            {
                set_index: (
                    tuple(cache_set),
                    _states(cache_set) if exact else None,
                )
                for set_index, cache_set in enumerate(sets)
                if cache_set
            }
            for sets in core_sets
        ],
        fills,
        evictions,
        holder_count,
        supplier_of,
        None if exact else ops,
        downgrades,
    )
    if exact:
        _store_snapshots(image, config.predictor, predictors)
    return image


def _record_removal(stream: List[int], address: int) -> None:
    stream.append(~address)


def _gain_conflict(
    address: int, home: Tuple[int, int], existing: Tuple[int, int]
) -> CoherenceError:
    return CoherenceError(
        "line %#x gained supplier at %s while %s still holds it"
        % (address, home, existing)
    )


def _states(
    cache_set: Dict[int, LineState]
) -> Optional[Tuple[LineState, ...]]:
    states = tuple(cache_set.values())
    return states if LineState.SL in states else None
