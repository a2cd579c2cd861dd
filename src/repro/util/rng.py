"""Central seed threading: every random stream derives from one seed.

The reproduction's headline claim — a whole simulated run is
bit-for-bit reproducible under a fixed seed — only holds if *no*
component ever falls back to OS entropy.  Historically ten constructors
defaulted to ``np.random.default_rng()`` (fresh entropy per process),
which made "same experiment, same seed" produce different packet-level
traces.  This module is the single sanctioned source of fallback
randomness:

- :func:`set_global_seed` / :func:`get_global_seed` manage the
  process-wide base seed (default ``0x1CDC5``).
- :func:`derive_rng` turns the base seed plus a stable component key
  (``derive_rng("net.link", src, dst)``) into an independent
  :class:`numpy.random.Generator`.  Distinct keys give statistically
  independent streams (via :class:`numpy.random.SeedSequence`), and the
  same key always gives the same stream for a given base seed — so a
  component constructed twice sees identical randomness regardless of
  construction order elsewhere in the run.

- :func:`child_rng` keys a child under an existing generator's seeding
  (each link is ``child_rng(topology.rng, src, dst)``).

Component constructors keep their ``rng: np.random.Generator | None``
parameter; an explicitly passed generator always wins.  Only the
``None`` fallback changed: it now threads the global seed instead of
pulling OS entropy.  The RL001 lint rule (``repro.analysis``) keeps it
that way by flagging any ``np.random.default_rng(...)`` call, seeded or
not, anywhere else under ``src/repro``: two components seeded with the
same integer read the *same* word sequence.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

#: Default base seed; any fixed value works, stability is what matters.
DEFAULT_SEED = 0x1CDC5

_global_seed: int = DEFAULT_SEED

KeyPart = Union[str, int, bytes]


def set_global_seed(seed: int) -> None:
    """Set the process-wide base seed for all fallback generators.

    Affects only generators derived *after* the call; experiments set
    this first thing (or pass explicit ``rng=`` handles, which are never
    affected).
    """
    global _global_seed
    _global_seed = int(seed)


def get_global_seed() -> int:
    """The current process-wide base seed."""
    return _global_seed


def _key_word(part: KeyPart) -> int:
    """Map one key component to a stable 64-bit word.

    Strings and bytes hash through BLAKE2s (stable across processes and
    platforms, unlike ``hash()``); ints pass through masked to 64 bits.
    """
    if isinstance(part, bool):  # bool is an int subclass; be explicit
        return int(part)
    if isinstance(part, int):
        return part & 0xFFFFFFFFFFFFFFFF
    data = part.encode("utf-8") if isinstance(part, str) else bytes(part)
    return int.from_bytes(hashlib.blake2s(data, digest_size=8).digest(), "little")


def derive_rng(*key: KeyPart, seed: int | None = None) -> np.random.Generator:
    """An independent generator for the component identified by ``key``.

    ``key`` should name the component stably — module-ish prefix plus
    identifying fields, e.g. ``derive_rng("net.link", "S", "O1")``.
    ``seed`` overrides the global base seed for this derivation only.
    """
    if not key:
        raise ValueError("derive_rng needs at least one key component")
    base = get_global_seed() if seed is None else int(seed)
    entropy = [base] + [_key_word(part) for part in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def child_rng(parent: np.random.Generator, *key: KeyPart) -> np.random.Generator:
    """An independent stream keyed under ``parent``'s seed sequence.

    ``key`` extends the parent's spawn key, so the child depends on how
    the parent was *seeded* and on ``key`` only — not on what the parent
    has drawn or which siblings exist — and the parent is left untouched.
    """
    if not key:
        raise ValueError("child_rng needs at least one key component")
    bit_generator = parent.bit_generator  # .seed_seq is public from NumPy 1.25 only
    seq = getattr(bit_generator, "seed_seq", None) or bit_generator._seed_seq
    if not isinstance(seq, np.random.SeedSequence):
        raise TypeError(f"child_rng needs a SeedSequence-seeded parent, got {type(seq).__name__}")
    spawn_key = (*seq.spawn_key, *map(_key_word, key))
    return np.random.default_rng(np.random.SeedSequence(seq.entropy, spawn_key=spawn_key))
