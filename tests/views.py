"""View-building helpers shared by the tests."""

import numpy as np


def words(kind, polarization) -> np.ndarray:
    """The 4-bit source word of each slot from its class and polarization:
    the StateClass value in the top two bits (signal as 10), the polarization
    in the low two. `AliceView(words(kind, polarization))` reads back both."""
    return (np.asarray(kind, dtype=np.uint8) << 2) | np.asarray(polarization, dtype=np.uint8)


def multi_click(view) -> np.ndarray:
    """The full-length column of a BobView's double clicks."""
    multi = np.zeros(len(view), dtype=bool)
    multi[view.multi_slots] = True
    return multi
