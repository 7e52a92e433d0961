"""The sweep layer's seed-derivation policy, in one place.

Every batch path in the library derives per-trial randomness the same
way, and this module is the single implementation of the rule:

**Policy.**  A batch is identified by a user seed (an int) and,
optionally, a *cell key* (the canonical string identity of one grid
point of a sweep).  Trial ``t`` of ``n`` draws from::

    SeedSequence([seed] (+ [entropy(cell_key)])).spawn(n)[t]

Never from ``seed + t``.  ``SeedSequence.spawn`` hashes the parent
entropy with a distinct spawn key per child, so:

- trial streams are statistically independent (additive seeds feed
  nearby integers to the bit generator, which numpy explicitly warns
  gives correlated PCG64 streams);
- batches with nearby seeds never share streams — with ``seed + t``,
  batch ``seed=0`` trial 5 and batch ``seed=5`` trial 0 are the *same*
  generator, silently duplicating "independent" replications;
- two different sweep cells never share streams even at the same user
  seed, because the cell key folds into the entropy;
- the stream of trial ``t`` depends only on ``(seed, cell_key, t)`` —
  not on grid ordering, worker count, or which other cells exist — so
  parallel execution is byte-identical to serial and cached results
  stay valid when the surrounding grid changes.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, List, Optional, Sequence

import numpy as np


def key_entropy(key: str) -> int:
    """A stable 128-bit integer derived from a cell-key string.

    SHA-256 based, so it is identical across processes and Python
    runs (unlike ``hash()``, which is salted per interpreter).
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


def trial_seed_sequences(
    seed: int,
    n_trials: int,
    *,
    cell_key: Optional[str] = None,
    trials: Optional[Sequence[int]] = None,
) -> List[np.random.SeedSequence]:
    """The independent child sequences of a batch, in ``trials`` order.

    Child ``t`` is built directly as ``SeedSequence(entropy,
    spawn_key=(t,))``, which is bit-identical to ``spawn(n_trials)[t]``,
    so a call that needs one trial derives one child, not ``n_trials``.

    Args:
        seed: the user-facing batch seed.
        n_trials: how many trials the batch runs.
        cell_key: canonical identity of the sweep cell, when the batch
            is one cell of a grid; ``None`` for standalone batches
            (``replay_many``).
        trials: the trial indices to derive; ``None`` means every
            trial, ``range(n_trials)``.

    Raises:
        ValueError: on negative ``n_trials``.
        IndexError: on a trial index outside ``range(n_trials)``.
    """
    if n_trials < 0:
        raise ValueError(f"n_trials must be >= 0, got {n_trials}")
    if trials is None:
        trials = range(n_trials)
    entropy = [seed] if cell_key is None else [seed, key_entropy(cell_key)]
    children = []
    for t in trials:
        if not 0 <= t < n_trials:
            raise IndexError(f"trial {t} is outside range({n_trials})")
        children.append(np.random.SeedSequence(entropy, spawn_key=(t,)))
    return children


def trial_rngs(
    seed: int,
    n_trials: int,
    *,
    cell_key: Optional[str] = None,
) -> Iterator[np.random.Generator]:
    """Generators for each trial of a batch, in trial order."""
    for ss in trial_seed_sequences(seed, n_trials, cell_key=cell_key):
        yield np.random.default_rng(ss)
