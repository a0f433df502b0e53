"""The three reference operating scenarios, at desk scale.

(a) one lit channel whose click probability drifts sinusoidally,
(b) two such channels extracted in parallel and merged,
(c) two unlit channels running on dark counts alone (p = 0.01).

Rates here use 4e6 windows per channel; the full-scale numbers
(0.3454 bits/window for (a), doubled for (b), ~0.0197 per channel for
(c)) are reproduced by the acceptance suite at 1e8 windows.
"""

from timebinrng import (
    StreamingMerger,
    extract,
    iter_simulate,
    merge_channels,
    preset,
    simulate,
)

N_WINDOWS = 4_000_000
SEED = 7

# --- scenario (a): single modulated channel -------------------------------
(model_a,) = preset("a")
stream_a = simulate(model_a, N_WINDOWS, SEED)
out_a = extract(stream_a)
rate_a = out_a.stats.bits_emitted / N_WINDOWS
print(f"(a) single lit channel: {out_a.stats.bits_emitted} bits "
      f"from {N_WINDOWS} windows -> {rate_a:.4f} bits/window")
print(f"    at {model_a.gate_frequency/1e6:.0f} MHz gating: {rate_a:.3f} Mbps")
print(f"    discards: {out_a.stats.blocks_discarded_k0_kn} single-outcome blocks, "
      f"{out_a.stats.fragments_discarded_alpha0} width-0 fragments")
print()

# Note: 4e6 windows is 4 s of stream, a fifth of the 20 s drift period,
# so this short run sits on the high-p flank; full periods average lower.

# --- scenario (b): two channels, merged -----------------------------------
models_b = preset("b")
streams_b = [simulate(m, N_WINDOWS, SEED, channel_id=ch) for ch, m in enumerate(models_b)]
merged = merge_channels(streams_b, 4, "round-robin-block")
rate_b = merged.stats.bits_emitted / N_WINDOWS
print(f"(b) two lit channels merged round-robin by block: "
      f"{merged.stats.bits_emitted} bits -> {rate_b:.4f} bits/channel-window")
print(f"    single-channel x{rate_b / rate_a:.3f}")
print()

# The same merge, streamed in bounded memory (what the CLI does):
merger = StreamingMerger(4, 2, "round-robin-block")
iters = [
    iter_simulate(m, N_WINDOWS, SEED, chunk_windows=1 << 20, channel_id=ch)
    for ch, m in enumerate(models_b)
]
for chunks in zip(*iters):
    merger.feed(list(chunks))
streamed = merger.finish()
print(f"    streamed merge identical to one-shot: {streamed.data == merged.data}")
print()

# --- scenario (c): dark counts only ---------------------------------------
models_c = preset("c")
total = 0
for ch, m in enumerate(models_c):
    out = extract(simulate(m, N_WINDOWS, SEED, channel_id=ch))
    rate = out.stats.bits_emitted / N_WINDOWS
    total += out.stats.bits_emitted
    print(f"(c) dark channel {ch}: {rate:.5f} bits/window")
print(f"    both channels together: {total / N_WINDOWS:.5f} bits/channel-window "
      f"({total / N_WINDOWS:.3f} Mbps at 1 MHz)")
