"""Walk through the block encoding by hand.

A detector stream is just 0/1 gate outcomes.  Group them into blocks of
four windows: with k avalanches in a block, all C(4, k) position
patterns are equally likely, so the pattern's rank is a uniform number
in [0, C(4,k)).  Ranks are then re-emitted as fixed-width bit fragments
through the power-of-two subblock split of C(4, k); blocks with k = 0
or k = 4 say nothing and are dropped.
"""

import numpy as np

from timebinrng import (
    Combination,
    DetectionStream,
    binary_expansion,
    binomial,
    extract,
    rank_combination,
)


def positions_of(windows):
    return tuple(i + 1 for i, b in enumerate(windows) if b)


# Eight windows: an avalanche in window 1, then one in windows 5 and 6.
stream = DetectionStream(np.array([1, 0, 0, 0, 1, 1, 0, 0], dtype=np.uint8))

print("stream windows:", stream.windows.tolist())
print()

for b in range(len(stream) // 4):
    block = stream.windows[4 * b : 4 * b + 4]
    c = Combination(4, int(block.sum()), positions_of(block))
    frag = extract(DetectionStream(block), 4).ascii_bits()
    rank = rank_combination(c) if 0 < c.k < c.n else None
    exps = binary_expansion(c.n, c.k).exponents if 0 < c.k < c.n else None
    print(f"block {b}: positions {c.positions} (k={c.k})")
    print(f"  C(4,{c.k}) = {binomial(4, c.k)} splits into powers {exps}")
    print(f"  rank = {rank} -> fragment {frag!r} ({len(frag)} bit)")
print()

out = extract(stream, 4)
print(f"extracted bit string: {out.ascii_bits()!r}")
print(f"stats: {out.stats}")
print()

# The complete picture for block length 4: every pattern and its fate.
print("pattern  k  rank  fragment")
for x in range(16):
    windows = tuple((x >> (3 - j)) & 1 for j in range(4))
    positions = positions_of(windows)
    k = len(positions)
    frag = extract(DetectionStream(np.array(windows, dtype=np.uint8)), 4).ascii_bits()
    rank = rank_combination(Combination(4, k, positions)) if 0 < k < 4 else "-"
    emitted = frag or "(discarded)"
    print(f"{''.join(map(str, windows))}     {k}  {rank!s:>4}  {emitted}")
