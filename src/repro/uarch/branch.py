"""A gshare dynamic branch predictor with prediction counts.

The predictor is a table of 2-bit saturating counters indexed by
``PC xor global-history``.  The solo steady-state calibration
(:func:`~repro.uarch.state.measure_steady_state`) drives it to measure a
workload profile's baseline mispredict rate.
"""

from __future__ import annotations

from typing import List


#: 2-bit saturating counter states.
STRONG_NOT_TAKEN, WEAK_NOT_TAKEN, WEAK_TAKEN, STRONG_TAKEN = 0, 1, 2, 3


class BranchStats:
    """Prediction counts."""

    __slots__ = ("predictions", "mispredictions")

    def __init__(self):
        self.predictions = 0
        self.mispredictions = 0

    def reset(self) -> None:
        self.predictions = 0
        self.mispredictions = 0

    def mispredict_rate(self) -> float:
        total = self.predictions
        return self.mispredictions / total if total else 0.0


class GShareBranchPredictor:
    """gshare: global history XOR PC indexes a 2-bit counter table."""

    def __init__(self, table_size: int = 1024, history_bits: int = 8):
        if table_size < 2 or (table_size & (table_size - 1)) != 0:
            raise ValueError(f"table_size must be a power of two >= 2, got {table_size}")
        if not 0 <= history_bits <= 30:
            raise ValueError(f"history_bits out of range: {history_bits}")
        self.table_size = table_size
        self.history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._table: List[int] = [WEAK_NOT_TAKEN] * table_size
        self._history = 0
        self.stats = BranchStats()

    def execute(self, pc: int, taken: bool) -> bool:
        """Predict and train on one branch; returns True if predicted right."""
        history = self._history
        index = ((pc >> 2) ^ history) % self.table_size
        table = self._table
        counter = table[index]
        prediction = counter >= WEAK_TAKEN
        correct = prediction == taken

        stats = self.stats
        stats.predictions += 1
        if not correct:
            stats.mispredictions += 1

        # Train the 2-bit counter.
        if taken:
            if counter < STRONG_TAKEN:
                table[index] = counter + 1
        elif counter > STRONG_NOT_TAKEN:
            table[index] = counter - 1

        # Update global history.
        self._history = ((history << 1) | int(taken)) & self._history_mask
        return correct
