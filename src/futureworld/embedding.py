"""Reference text embedder: seeded feature hashing of character 3-grams.

This stands in for a pretrained semantic encoder so that similarity
resampling is deterministic and dependency-free. ``HashingEmbedder`` holds
the parameters; ``embed_text`` does the work, and is the only place here
that loads numpy: only resampling over quota embeds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class HashingEmbedder:
    dim: int = 256
    seed: int = 0


def _grams(text: str, n: int = 3) -> list[str]:
    if len(text) < n:
        return [text] if text else []
    return [text[i : i + n] for i in range(len(text) - n + 1)]


def embed_text(text: str, embedder: HashingEmbedder) -> np.ndarray:
    """Hash character 3-grams into a signed count vector, then L2-normalize.

    All-zero accumulations (empty text) map to the first canonical basis
    vector so the output is always unit-norm.
    """
    import numpy as np

    vec = np.zeros(embedder.dim, dtype=float)
    prefix = f"{embedder.seed}:".encode("utf-8")
    for gram in _grams(text):
        digest = hashlib.blake2b(prefix + gram.encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "big")
        index = h % embedder.dim
        sign = 1.0 if (h >> 62) & 1 else -1.0
        vec[index] += sign
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        vec[0] = 1.0
        return vec
    return vec / norm
