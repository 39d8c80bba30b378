"""Generate a pulse train and check its class mix and photon statistics.

Each 50 ns slot carries one weak coherent pulse drawn from a 4-bit random
word: half the slots are signal (mean photon number 0.8), a quarter decoy
(0.1), a quarter vacuum. The photon number in each pulse is Poisson with its
class mean. The simulator never draws it (detection samples the clicks it
causes directly), so this demo draws one per slot itself to show the
statistics.
"""

import numpy as np

from uwqkd import WORD_CLASS, Polarization, SourceConfig, StateClass, generate_pulse_train

cfg = SourceConfig()
print(f"signal mu = {cfg.mu}, decoy nu = {cfg.nu}, clock = {cfg.repetition_rate_hz/1e6:.0f} MHz")

# The 4-bit word fully determines class and polarization.
print("\nword table (word -> class, polarization)")
for word in range(16):
    cls, pol = StateClass(int(WORD_CLASS[word])), Polarization(word & 0x3)
    print(f"  {word:04b} -> {cls.name:<6} {pol.name}")

# A million slots is enough to see the 2:1:1 mix cleanly.
n = 1_000_000
train = generate_pulse_train(cfg, n, np.random.default_rng(7))
kind = train.kind  # derived from the stored words on each access, so bound once

print("\nclass frequencies")
# the expected mix is the share of the sixteen words in each class
expected = np.bincount(WORD_CLASS, minlength=3) / 16
for cls in (StateClass.SIGNAL, StateClass.DECOY, StateClass.VACUUM):
    observed, p = np.mean(kind == cls), expected[cls]
    print(f"  {cls.name:<6} observed {observed:.4f}  expected {p:.4f}")

# Each slot's mean photon number is its class mean; draw a Poisson number
# per slot to illustrate. Mean and variance should agree.
photon_count = np.random.default_rng(8).poisson(cfg.class_means[kind])
print("\nphoton number by class")
for cls, mean in ((StateClass.SIGNAL, cfg.mu), (StateClass.DECOY, cfg.nu)):
    counts = photon_count[kind == cls]
    print(f"  {cls.name:<6} mean {counts.mean():.4f} var {counts.var():.4f} "
          f"(Poisson mean {mean})")
vacuum_counts = photon_count[kind == StateClass.VACUUM]
print(f"  VACUUM max photon count: {vacuum_counts.max()} (always 0)")

# Emission probability of a non-empty signal pulse: 1 - exp(-mu).
p_emit = np.mean(photon_count[kind == StateClass.SIGNAL] > 0)
print(f"\nP(n >= 1 | signal) = {p_emit:.4f}  model {1 - np.exp(-cfg.mu):.4f}")

# Polarizations are uniform and the key bit is just the basis-internal index.
print("\npolarization mix:", np.bincount(train.polarization, minlength=4) / n)
assert np.array_equal(train.bit, train.polarization % 2)
print("key bit = polarization index within basis: ok")

# Same seed, same train. Different seed, a different train.
again = generate_pulse_train(cfg, n, np.random.default_rng(7))
assert np.array_equal(train.word, again.word)
print("seeded generation reproduces exactly: ok")
